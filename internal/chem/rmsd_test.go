package chem

import (
	"math"
	"math/rand"
	"testing"
)

func TestRMSDIdentity(t *testing.T) {
	a := []Vec3{V(0, 0, 0), V(1, 1, 1), V(2, 0, 1)}
	got, err := RMSD(a, a)
	if err != nil || !approx(got, 0, eps) {
		t.Errorf("RMSD(a,a) = %v, %v", got, err)
	}
}

func TestRMSDKnownValue(t *testing.T) {
	a := []Vec3{V(0, 0, 0), V(0, 0, 0)}
	b := []Vec3{V(3, 4, 0), V(0, 0, 0)}
	// sqrt((25+0)/2)
	got, err := RMSD(a, b)
	if err != nil || !approx(got, math.Sqrt(12.5), eps) {
		t.Errorf("RMSD = %v, %v", got, err)
	}
}

func TestRMSDErrors(t *testing.T) {
	if _, err := RMSD([]Vec3{{}}, []Vec3{{}, {}}); err == nil {
		t.Error("length mismatch not caught")
	}
	if _, err := RMSD(nil, nil); err == nil {
		t.Error("empty sets not caught")
	}
}

func TestRMSDSymmetryProperty(t *testing.T) {
	r := rand.New(rand.NewSource(11))
	for i := 0; i < 50; i++ {
		n := 3 + r.Intn(10)
		a := make([]Vec3, n)
		b := make([]Vec3, n)
		for j := range a {
			a[j] = V(r.Float64()*10, r.Float64()*10, r.Float64()*10)
			b[j] = V(r.Float64()*10, r.Float64()*10, r.Float64()*10)
		}
		ab, _ := RMSD(a, b)
		ba, _ := RMSD(b, a)
		if !approx(ab, ba, 1e-12) {
			t.Fatalf("RMSD not symmetric: %v vs %v", ab, ba)
		}
	}
}

func TestKabschRMSDInvariantToRigidMotion(t *testing.T) {
	r := rand.New(rand.NewSource(13))
	a := make([]Vec3, 12)
	for i := range a {
		a[i] = V(r.Float64()*8, r.Float64()*8, r.Float64()*8)
	}
	// b = rotated + translated copy of a: Kabsch RMSD must be ~0.
	q := RandomQuat(r.Float64(), r.Float64(), r.Float64())
	shift := V(5, -3, 2)
	b := make([]Vec3, len(a))
	for i := range a {
		b[i] = q.Rotate(a[i]).Add(shift)
	}
	got, err := KabschRMSD(a, b)
	if err != nil {
		t.Fatal(err)
	}
	if got > 1e-6 {
		t.Errorf("KabschRMSD of rigid copy = %v, want ~0", got)
	}
	// Plain RMSD sees the motion.
	plain, _ := RMSD(a, b)
	if plain < 1 {
		t.Errorf("plain RMSD = %v, expected large", plain)
	}
}

func TestKabschRMSDLowerBound(t *testing.T) {
	// Kabsch RMSD is never larger than plain RMSD.
	r := rand.New(rand.NewSource(17))
	for trial := 0; trial < 30; trial++ {
		n := 4 + r.Intn(8)
		a := make([]Vec3, n)
		b := make([]Vec3, n)
		for i := range a {
			a[i] = V(r.Float64()*6, r.Float64()*6, r.Float64()*6)
			b[i] = V(r.Float64()*6, r.Float64()*6, r.Float64()*6)
		}
		k, err1 := KabschRMSD(a, b)
		p, err2 := RMSD(a, b)
		if err1 != nil || err2 != nil {
			t.Fatal(err1, err2)
		}
		if k > p+1e-9 {
			t.Fatalf("Kabsch %v > plain %v", k, p)
		}
	}
}

func TestKabschRMSDErrors(t *testing.T) {
	if _, err := KabschRMSD(nil, nil); err == nil {
		t.Error("empty input not caught")
	}
	if _, err := KabschRMSD(make([]Vec3, 1), make([]Vec3, 2)); err == nil {
		t.Error("mismatch not caught")
	}
}
