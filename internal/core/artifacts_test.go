package core

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"runtime"
	"testing"

	"repro/internal/data"
)

// artifactsDigest folds everything a finished campaign left behind —
// every staged file as (path, bytes) in List order, then the whole
// provenance database as Save writes it — into one SHA-256. Lengths are
// folded in front of each field so no two file sets can collide by
// concatenation.
func artifactsDigest(t *testing.T, camp *Campaign) string {
	t.Helper()
	h := sha256.New()
	field := func(b []byte) {
		var n [8]byte
		binary.LittleEndian.PutUint64(n[:], uint64(len(b)))
		h.Write(n[:])
		h.Write(b)
	}
	paths, err := camp.Engine.FS.List("/")
	if err != nil {
		t.Fatal(err)
	}
	if len(paths) == 0 {
		t.Fatal("campaign staged no files")
	}
	for _, p := range paths {
		content, _, err := camp.Engine.FS.Read(p)
		if err != nil {
			t.Fatal(err)
		}
		field([]byte(p))
		field(content)
	}
	var db bytes.Buffer
	if err := camp.Engine.DB.Save(&db); err != nil {
		t.Fatal(err)
	}
	field(db.Bytes())
	return hex.EncodeToString(h.Sum(nil))
}

// TestCampaignArtifactsGolden pins every byte a campaign produces: the
// staged files and the provenance database. The digests were recorded
// on the per-workflow builder caches (one grid.Generate per receptor ×
// ligand type set, one PDBQT rendering per pair, simfs copying every
// write) before the product store replaced them, and must never be
// edited by a change that claims to preserve behaviour. The bench
// digest covers ddocking rows and TET bits only; this covers the rest.
func TestCampaignArtifactsGolden(t *testing.T) {
	switch runtime.GOARCH {
	case "arm64", "ppc64", "ppc64le", "s390x", "riscv64", "loong64":
		t.Skipf("golden digests assume unfused multiply-add; GOARCH=%s fuses", runtime.GOARCH)
	}
	small, err := data.Small(6, 3)
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name string
		cfg  Config
		want string
	}{
		{
			name: "adaptive-6x3",
			cfg: Config{
				Mode: ModeAdaptive, Dataset: small, Cores: 8,
				Effort: SmokeEffort(), Seed: 2014, HgGuard: true,
			},
			want: "8bb0d59927429f50efd0ccde9aab23be7f8e03ab749793d964f9c8249f96ee9f",
		},
		{
			name: "ad4-writemaps",
			cfg: Config{
				Mode:    ModeAD4,
				Dataset: data.Dataset{Receptors: []string{"1AIM"}, Ligands: []string{"042"}},
				Cores:   2, Effort: SmokeEffort(), HgGuard: true, DisableFailures: true,
				WriteMaps: true,
			},
			want: "5fdb8dd751ec43458e0617cf5b56851579be07c5266d09a87123b60fdcef2fe8",
		},
	} {
		t.Run(tc.name, func(t *testing.T) {
			camp, err := Run(tc.cfg)
			if err != nil {
				t.Fatal(err)
			}
			if got := artifactsDigest(t, camp); got != tc.want {
				t.Errorf("artifacts digest = %s, want %s", got, tc.want)
			}
		})
	}
}
