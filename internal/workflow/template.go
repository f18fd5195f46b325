package workflow

import (
	"fmt"
	"regexp"
	"strings"
)

// tagPattern matches %NAME% placeholders in instrumented command
// templates (Figure 3 of the paper shows Babel's template with such
// tags replaced at dispatch time).
var tagPattern = regexp.MustCompile(`%([A-Za-z_][A-Za-z0-9_]*)%`)

// Instantiate substitutes every %TAG% in the template with the
// matching tuple field. Unresolved tags are an error: SciCumulus
// refuses to dispatch an activation whose command is incomplete.
func Instantiate(template string, t Tuple) (string, error) {
	var missing []string
	out := tagPattern.ReplaceAllStringFunc(template, func(m string) string {
		key := strings.Trim(m, "%")
		if v, ok := t[key]; ok {
			return v
		}
		missing = append(missing, key)
		return m
	})
	if len(missing) > 0 {
		return "", fmt.Errorf("workflow: template references unbound tags: %s", strings.Join(missing, ", "))
	}
	return out, nil
}
