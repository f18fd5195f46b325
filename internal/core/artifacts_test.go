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
// staged files and the provenance database. The digests were
// re-recorded at trajectory epoch 2 — the root-frame pose model,
// Vina's reusable summation order and the re-fitted FEB calibration,
// from the full-walk search before the incremental evaluator existed —
// and again when the radial tables took their octave-indexed geometry
// and every exponential on the exact path (table nodes, cost draws,
// Metropolis test) moved to fmath.Exp, which gives equal digests with
// and without GODEBUG=cpu.fma=off; adaptive-6x3 once more when Vina's
// BFGS local optimizer, searching Vina's capped potential, replaced
// the compass search and Vina's FEB constants were re-fitted (ad4-writemaps docks with AD4 alone and did
// not move), and again when the stall stop began ending Vina's local
// optimizations and Vina's constants were re-fitted, and again at the
// tree of frames (ligand kinematics) with a Vina re-fit, and both when
// the AutoGrid lattices became float32 (AD4's grid energies and the
// written .map files move by rounding; Vina does not read the
// lattices). They must never be edited by a
// change that claims to preserve behaviour. The bench digest covers ddocking rows and TET bits only;
// this covers the rest.
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
			want: "5bc392eca4b85a719f5c1eb8bac44d534c77c4ca687ab89a0f10e3f4f2502687",
		},
		{
			name: "ad4-writemaps",
			cfg: Config{
				Mode:    ModeAD4,
				Dataset: data.Dataset{Receptors: []string{"1AIM"}, Ligands: []string{"042"}},
				Cores:   2, Effort: SmokeEffort(), HgGuard: true, DisableFailures: true,
				WriteMaps: true,
			},
			want: "d908593d46b6080941bdd4c76163973748516620d09b1af3ba0cf47a4740d3c0",
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
