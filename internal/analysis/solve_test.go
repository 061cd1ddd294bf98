package analysis

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/controller"
	"repro/internal/core"
	"repro/internal/topology"
)

// denseSolve is the oracle for the factored solve: Gaussian
// elimination with partial pivoting of one dense system, rebuilt from
// scratch for each right-hand side, touching every column.
func denseSolve(m [][]float64, b []float64) ([]float64, error) {
	n := len(m)
	for col := 0; col < n; col++ {
		pivot := col
		for r := col + 1; r < n; r++ {
			if abs(m[r][col]) > abs(m[pivot][col]) {
				pivot = r
			}
		}
		if abs(m[pivot][col]) < 1e-12 {
			return nil, ErrSingular
		}
		m[col], m[pivot] = m[pivot], m[col]
		b[col], b[pivot] = b[pivot], b[col]
		for r := col + 1; r < n; r++ {
			f := m[r][col] / m[col][col]
			if f == 0 {
				continue
			}
			for k := col; k < n; k++ {
				m[r][k] -= f * m[col][k]
			}
			b[r] -= f * b[col]
		}
	}
	x := make([]float64, n)
	for i := n - 1; i >= 0; i-- {
		sum := b[i]
		for k := i + 1; k < n; k++ {
			sum -= m[i][k] * x[k]
		}
		x[i] = sum / m[i][i]
	}
	return x, nil
}

// absorbDense solves the chain's two systems the oracle way: a fresh
// dense I - T and a full elimination per right-hand side.
func (c *chain) absorbDense() (pDel, hops []float64, err error) {
	n := len(c.states)
	pb := make([]float64, n)
	hb := make([]float64, n)
	for i := range pb {
		if c.deliver[i] {
			pb[i] = 1
		}
	}
	if pDel, err = denseSolve(c.system(make([]float64, n*n)), pb); err != nil {
		return nil, nil, err
	}
	for i := range hb {
		if c.deliver[i] || c.dropped[i] {
			continue
		}
		for _, e := range c.trans[i] {
			hb[i] += e.p * pDel[e.to]
		}
	}
	hops, err = denseSolve(c.system(make([]float64, n*n)), hb)
	return pDel, hops, err
}

// requireSameBits fails unless the factored and dense solves agree
// bit for bit on every state.
func requireSameBits(t *testing.T, label string, c *chain) {
	t.Helper()
	gotP, gotH, err := c.absorb()
	wantP, wantH, werr := c.absorbDense()
	if (err == nil) != (werr == nil) {
		t.Fatalf("%s: factored err %v, dense err %v", label, err, werr)
	}
	for i := range wantP {
		if math.Float64bits(gotP[i]) != math.Float64bits(wantP[i]) {
			t.Fatalf("%s: state %d PDeliver %v, dense %v", label, i, gotP[i], wantP[i])
		}
		if math.Float64bits(gotH[i]) != math.Float64bits(wantH[i]) {
			t.Fatalf("%s: state %d hops %v, dense %v", label, i, gotH[i], wantH[i])
		}
	}
}

// randomChain builds a sub-stochastic chain of n states: a few
// delivery and drop states, and transient rows of one to four
// successors whose weights sum to at most 1 (missing mass is an
// implicit drop).
func randomChain(rng *rand.Rand, n int) *chain {
	c := &chain{
		states:  make([]state, n),
		trans:   make([][]edgeProb, n),
		deliver: make([]bool, n),
		dropped: make([]bool, n),
	}
	for i := 0; i < n; i++ {
		switch r := rng.Intn(10); {
		case r == 0:
			c.deliver[i] = true
			continue
		case r == 1:
			c.dropped[i] = true
			continue
		}
		k := 1 + rng.Intn(4)
		scale := 1.0
		if rng.Intn(3) == 0 {
			scale = rng.Float64()
		}
		w := make([]float64, k)
		var sum float64
		for j := range w {
			w[j] = rng.Float64() + 0.01
			sum += w[j]
		}
		for j := range w {
			c.trans[i] = append(c.trans[i], edgeProb{to: rng.Intn(n), p: scale * w[j] / sum})
		}
	}
	c.markTrapped()
	return c
}

func TestFactoredSolveMatchesDenseOnRandomChains(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 200; trial++ {
		n := 2 + rng.Intn(120)
		requireSameBits(t, "random chain", randomChain(rng, n))
	}
}

// Every path failure of three fattree:8 routes under nip: the
// 260–320-state chains the verify sweep spends its time on.
func TestFactoredSolveMatchesDenseOnFattreeNIP(t *testing.T) {
	g, err := topology.FatTree(8)
	if err != nil {
		t.Fatal(err)
	}
	ctrl := controller.New(g, controller.WithAutoProtection(core.PlanOptions{}))
	routes := [][2]string{{"E0", "E1"}, {"E10", "E11"}, {"E0", "E21"}}
	for _, rt := range routes {
		route, err := ctrl.InstallRoute(rt[0], rt[1], nil)
		if err != nil {
			t.Fatal(err)
		}
		nodes := route.Path.Nodes
		for k := 0; k+1 < len(nodes); k++ {
			l, ok := g.LinkBetween(nodes[k].Name(), nodes[k+1].Name())
			if !ok {
				t.Fatalf("no link %s-%s", nodes[k], nodes[k+1])
			}
			a, err := New(ctrl, "nip", []*topology.Link{l})
			if err != nil {
				t.Fatal(err)
			}
			c, _, _, err := a.buildChain(rt[0], rt[1])
			if err != nil {
				t.Fatal(err)
			}
			c.markTrapped()
			requireSameBits(t, rt[0]+"->"+rt[1]+" fail "+l.Name(), c)
		}
	}
}
