package campaign

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/data"
)

// Spec is the JSON-friendly campaign description accepted by the
// service API. Zero values mean the one-shot CLI defaults, so a spec
// of `{}` submits exactly the campaign `scidock` runs with no flags;
// the guard booleans are inverted (DisableHgGuard/EnableFailures
// flipped to Disable*) for the same reason.
type Spec struct {
	// Tenant names the submitting tenant for admission control;
	// empty = "default".
	Tenant string `json:"tenant,omitempty"`
	// Mode is the docking mode: ad4 (default), vina or adaptive.
	Mode string `json:"mode,omitempty"`
	// Receptors/Ligands size the Table-2 dataset slice; 0 = the CLI
	// defaults (10 receptors × 2 ligands).
	Receptors int `json:"receptors,omitempty"`
	Ligands   int `json:"ligands,omitempty"`
	// Cores is the virtual worker-core count; 0 = 16.
	Cores int `json:"cores,omitempty"`
	// Effort is the docking effort preset: smoke, campaign (default)
	// or quick.
	Effort string `json:"effort,omitempty"`
	// Seed is the campaign seed; 0 = 2014 (the CLI default).
	Seed int64 `json:"seed,omitempty"`
	// DisableHgGuard turns off the §V.C Hg steering guard (on by
	// default, as in the CLI).
	DisableHgGuard bool `json:"disable_hg_guard,omitempty"`
	// DisableFailures turns off transient failure injection (on by
	// default, as in the CLI).
	DisableFailures bool `json:"disable_failures,omitempty"`
}

// TenantName returns the tenant, defaulted.
func (s Spec) TenantName() string {
	if s.Tenant == "" {
		return "default"
	}
	return s.Tenant
}

// withDefaults fills zero values with the CLI defaults.
func (s Spec) withDefaults() Spec {
	if s.Mode == "" {
		s.Mode = "ad4"
	}
	if s.Receptors == 0 {
		s.Receptors = 10
	}
	if s.Ligands == 0 {
		s.Ligands = 2
	}
	if s.Cores == 0 {
		s.Cores = 16
	}
	if s.Effort == "" {
		s.Effort = "campaign"
	}
	if s.Seed == 0 {
		s.Seed = 2014
	}
	return s
}

// Config validates the spec and builds the core.Config it describes,
// including the dataset. The mapping is exactly the one-shot CLI's,
// so a spec and the equivalent flag set produce byte-identical
// campaigns.
func (s Spec) Config() (core.Config, error) {
	s = s.withDefaults()
	var cfg core.Config
	if s.Cores < 1 {
		return cfg, fmt.Errorf("campaign: cores %d must be positive", s.Cores)
	}
	ds, err := data.Small(s.Receptors, s.Ligands)
	if err != nil {
		return cfg, err
	}
	cfg = core.Config{
		Dataset:         ds,
		Cores:           s.Cores,
		Seed:            s.Seed,
		HgGuard:         !s.DisableHgGuard,
		DisableFailures: s.DisableFailures,
	}
	switch s.Mode {
	case "ad4":
		cfg.Mode = core.ModeAD4
	case "vina":
		cfg.Mode = core.ModeVina
	case "adaptive":
		cfg.Mode = core.ModeAdaptive
	default:
		return cfg, fmt.Errorf("campaign: unknown mode %q (valid: ad4, vina, adaptive)", s.Mode)
	}
	switch s.Effort {
	case "smoke":
		cfg.Effort = core.SmokeEffort()
	case "campaign":
		cfg.Effort = core.CampaignEffort()
	case "quick":
		cfg.Effort = core.QuickEffort()
	default:
		return cfg, fmt.Errorf("campaign: unknown effort %q (valid: smoke, campaign, quick)", s.Effort)
	}
	return cfg, nil
}
