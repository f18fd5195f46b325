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
// re-recorded once at trajectory epoch 2 — the root-frame pose model,
// Vina's reusable summation order and the re-fitted FEB calibration,
// from the full-walk search before the incremental evaluator existed —
// and must never be edited by a change that claims to preserve
// behaviour. The bench digest covers ddocking rows and TET bits only;
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
			want: "d905d591cf421cd589b06753f97d097b9d80305db2ae10c0e0a9d989d85e841e",
		},
		{
			name: "ad4-writemaps",
			cfg: Config{
				Mode:    ModeAD4,
				Dataset: data.Dataset{Receptors: []string{"1AIM"}, Ligands: []string{"042"}},
				Cores:   2, Effort: SmokeEffort(), HgGuard: true, DisableFailures: true,
				WriteMaps: true,
			},
			want: "74b21b64ba5373839a7ff347b55788247261fdf3bde161e39904ffef8a820175",
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
