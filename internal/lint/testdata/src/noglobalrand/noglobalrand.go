// Fixture for the noglobalrand analyzer: global math/rand draws are
// flagged; explicit seeded generators and type references are not.
package noglobalrand

import (
	"math/rand"
	randv2 "math/rand/v2"
)

func bad() int {
	n := rand.Intn(10)
	rand.Shuffle(n, func(i, j int) {})
	f := rand.Float64
	_ = f
	return n + randv2.IntN(3)
}

func good(seed int64) float64 {
	r := rand.New(rand.NewSource(seed)) // constructors are allowed
	z := rand.NewZipf(r, 1.1, 1, 100)
	var src rand.Source = rand.NewSource(seed) // type references are allowed
	_ = src
	return r.Float64() + float64(z.Uint64())
}

func ignored() int {
	return rand.Intn(2) //rexlint:ignore noglobalrand fixture demonstrates suppression
}
