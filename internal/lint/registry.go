package lint

// Analyzers returns the full registry in stable order. Each analyzer
// enforces one invariant the paper's trustworthiness claims rest on;
// see the per-analyzer Doc strings and DESIGN.md §"Static analysis".
func Analyzers() []*Analyzer {
	return []*Analyzer{
		DetFlow,
		DiscardErr,
		FloatCmp,
	}
}

// ByName resolves one analyzer, or nil.
func ByName(name string) *Analyzer {
	for _, a := range Analyzers() {
		if a.Name == name {
			return a
		}
	}
	return nil
}
