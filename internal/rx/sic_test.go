package rx

import (
	"bytes"
	"errors"
	"math"
	"math/cmplx"
	"math/rand"
	"testing"

	"cbma/internal/channel"
	"cbma/internal/geom"
	"cbma/internal/pn"
	"cbma/internal/tag"
)

func TestSolveComplexKnownSystem(t *testing.T) {
	// [2 1; 1 3]·a = [5+1i; 10-2i] → a = [1+1i, 3-1i]
	g := [][]float64{{2, 1}, {1, 3}}
	b := []complex128{5 + 1i, 10 - 2i}
	a, ok := solveFresh(g, b)
	if !ok {
		t.Fatal("solver failed")
	}
	want := []complex128{1 + 1i, 3 - 1i}
	for i := range want {
		if cmplx.Abs(a[i]-want[i]) > 1e-9 {
			t.Errorf("a[%d] = %v, want %v", i, a[i], want[i])
		}
	}
}

func TestSolveComplexSingular(t *testing.T) {
	g := [][]float64{{1, 1}, {1, 1}}
	b := []complex128{1, 1}
	if _, ok := solveFresh(g, b); ok {
		t.Fatal("singular system must report failure")
	}
}

func TestSolveComplexIdentity(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	const k = 5
	g := make([][]float64, k)
	b := make([]complex128, k)
	for i := range g {
		g[i] = make([]float64, k)
		g[i][i] = 1
		b[i] = complex(rng.NormFloat64(), rng.NormFloat64())
	}
	a, ok := solveFresh(g, b)
	if !ok {
		t.Fatal("identity solve failed")
	}
	for i := range b {
		if a[i] != b[i] {
			t.Errorf("a[%d] = %v, want %v", i, a[i], b[i])
		}
	}
}

// oracleUser is one accepted user as the from-scratch fit sees it: a 0/1
// chip stream starting at sample lag.
type oracleUser struct {
	lag   int
	chips []byte
}

// oracleFit is the from-scratch joint fit that sicState replaces: it builds
// G and b for every accepted user by walking each user's chips and testing
// every later user per sample, O(k²·N) per call.
func oracleFit(x []complex128, users []oracleUser, spc int) ([][]float64, []complex128) {
	k := len(users)
	g := make([][]float64, k)
	b := make([]complex128, k)
	for i := range g {
		g[i] = make([]float64, k)
	}
	// onAt reports whether user u is reflecting at absolute sample t.
	onAt := func(u int, t int) bool {
		rel := t - users[u].lag
		if rel < 0 {
			return false
		}
		c := rel / spc
		if c >= len(users[u].chips) {
			return false
		}
		return users[u].chips[c] == 1
	}
	for i := 0; i < k; i++ {
		ui := users[i]
		for c, chip := range ui.chips {
			if chip == 0 {
				continue
			}
			base := ui.lag + c*spc
			for s := 0; s < spc; s++ {
				t := base + s
				if t < 0 || t >= len(x) {
					continue
				}
				b[i] += x[t]
				g[i][i]++
				for j := i + 1; j < k; j++ {
					if onAt(j, t) {
						g[i][j]++
						g[j][i]++
					}
				}
			}
		}
	}
	return g, b
}

// oracleResidual rebuilds the whole residual from the samples, subtracting
// each user's amplitude over its active chips, users in ascending order.
func oracleResidual(x []complex128, users []oracleUser, spc int, amps []complex128) []complex128 {
	work := append([]complex128(nil), x...)
	for u, us := range users {
		for c, chip := range us.chips {
			if chip == 0 {
				continue
			}
			for s := 0; s < spc; s++ {
				if t := us.lag + c*spc + s; t >= 0 && t < len(work) {
					work[t] -= amps[u]
				}
			}
		}
	}
	return work
}

// solveFresh solves g·a = b on copies, leaving g and b intact.
func solveFresh(g [][]float64, b []complex128) ([]complex128, bool) {
	m := make([][]float64, len(g))
	for i := range m {
		m[i] = append([]float64(nil), g[i]...)
	}
	out := make([]complex128, len(b))
	if !solveComplex(m, append([]complex128(nil), b...), out) {
		return nil, false
	}
	return out, true
}

func sameBits(a, b complex128) bool {
	return math.Float64bits(real(a)) == math.Float64bits(real(b)) &&
		math.Float64bits(imag(a)) == math.Float64bits(imag(b))
}

// TestIncrementalFitMatchesOracle grows random accepted sets one user at a
// time — lags before the buffer start, runs past its end, users wholly
// outside it, dense and sparse chip streams — and requires the incremental
// G, b, amplitudes and residual to equal the from-scratch oracle's bit for
// bit after every acceptance. One sicState serves every trial, as one
// Scratch serves every round.
func TestIncrementalFitMatchesOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	var st sicState
	solved := 0
	for trial := 0; trial < 300; trial++ {
		spc := []int{1, 2, 4, 8}[rng.Intn(4)]
		n := 50 + rng.Intn(400)
		x := make([]complex128, n)
		for i := range x {
			x[i] = complex(rng.NormFloat64(), rng.NormFloat64())
		}
		work := append([]complex128(nil), x...)
		st.reset(n)
		var users []oracleUser
		for k := 1 + rng.Intn(10); len(users) < k; {
			chips := make([]byte, 1+rng.Intn(2*n/spc))
			density := []float64{0.1, 0.5, 0.9}[rng.Intn(3)]
			for c := range chips {
				if rng.Float64() < density {
					chips[c] = 1
				}
			}
			lag := rng.Intn(n+2*len(chips)*spc) - len(chips)*spc
			users = append(users, oracleUser{lag: lag, chips: chips})
			st.accept(x, lag, chips, spc)

			g, b := oracleFit(x, users, spc)
			for i := range g {
				for j := range g[i] {
					if got := st.g[i][j]; math.Float64bits(got) != math.Float64bits(g[i][j]) {
						t.Fatalf("trial %d, k=%d: G[%d][%d] = %v, oracle %v", trial, len(users), i, j, got, g[i][j])
					}
				}
				if !sameBits(st.b[i], b[i]) {
					t.Fatalf("trial %d, k=%d: b[%d] = %v, oracle %v", trial, len(users), i, st.b[i], b[i])
				}
			}
			want, wantOK := solveFresh(g, b)
			amps, ok := st.solve()
			if ok != wantOK {
				t.Fatalf("trial %d, k=%d: solve ok=%v, oracle %v", trial, len(users), ok, wantOK)
			}
			if !ok {
				continue
			}
			solved++
			for i := range want {
				if !sameBits(amps[i], want[i]) {
					t.Fatalf("trial %d, k=%d: amp[%d] = %v, oracle %v", trial, len(users), i, amps[i], want[i])
				}
			}
			st.cancel(work, x, amps)
			for i, v := range oracleResidual(x, users, spc, want) {
				if !sameBits(work[i], v) {
					t.Fatalf("trial %d, k=%d: residual[%d] = %v, oracle %v", trial, len(users), i, work[i], v)
				}
			}
		}
	}
	if solved < 300 {
		t.Errorf("only %d solvable fits: the generator exercises too few", solved)
	}
}

func TestSuppressGhosts(t *testing.T) {
	frames := []DecodedFrame{
		{TagID: 0, OK: true, Corr: 0.5, Payload: []byte("abc")},
		{TagID: 1, OK: true, Corr: 0.2, Payload: []byte("abc")}, // ghost of 0
		{TagID: 2, OK: true, Corr: 0.4, Payload: []byte("xyz")},
		{TagID: 3, OK: false, Corr: 0.9, Payload: []byte("abc")}, // already failed
	}
	suppressGhosts(frames)
	if !frames[0].OK {
		t.Error("strongest duplicate must survive")
	}
	if frames[1].OK || !errors.Is(frames[1].Err, ErrGhost) {
		t.Errorf("weaker duplicate must be ghost-suppressed: %+v", frames[1])
	}
	if !frames[2].OK {
		t.Error("unique payload must survive")
	}
	if errors.Is(frames[3].Err, ErrGhost) {
		t.Error("already-failed frames are not ghost candidates")
	}
}

func TestSuppressGhostsKeepsLaterStronger(t *testing.T) {
	frames := []DecodedFrame{
		{TagID: 0, OK: true, Corr: 0.2, Payload: []byte("p")},
		{TagID: 1, OK: true, Corr: 0.6, Payload: []byte("p")},
	}
	suppressGhosts(frames)
	if frames[0].OK || !frames[1].OK {
		t.Errorf("the stronger (later) frame must win: %+v", frames)
	}
}

// buildTenTagBuffer synthesizes a collision of the given active Gold tags.
func buildTenTagBuffer(t *testing.T, set *pn.Set, active []int, rng *rand.Rand, spc int, noise float64) ([]complex128, map[int][]byte, int) {
	t.Helper()
	const lead = 2000
	payloads := map[int][]byte{}
	var buf []complex128
	for _, id := range active {
		tg, err := tag.New(id, tag.Config{Code: set.Codes[id], SamplesPerChip: spc}, geom.Point{})
		if err != nil {
			t.Fatal(err)
		}
		p := make([]byte, 10)
		rng.Read(p)
		payloads[id] = p
		w, err := tg.Waveform(p)
		if err != nil {
			t.Fatal(err)
		}
		if buf == nil {
			buf = make([]complex128, lead+len(w)+300)
		}
		phase := rng.Float64() * 2 * math.Pi
		amp := complex(math.Sqrt(noise*200), 0) * cmplx.Exp(complex(0, phase))
		for k, v := range w {
			buf[lead+k] += v * amp
		}
	}
	channel.AWGN(rng, buf, noise)
	return buf, payloads, lead
}

func TestSICDecodesAllActiveExactly(t *testing.T) {
	set, err := pn.NewGoldSet(5, 10)
	if err != nil {
		t.Fatal(err)
	}
	const spc = 4
	const noise = 1e-10
	r, err := New(Config{Codes: set, SamplesPerChip: spc, NoiseFloorW: noise, SIC: true})
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(3))
	const trials = 10
	exact := 0
	for trial := 0; trial < trials; trial++ {
		var active []int
		for i := 0; i < 10; i++ {
			if rng.Float64() < 0.5 {
				active = append(active, i)
			}
		}
		if len(active) == 0 {
			active = []int{trial % 10}
		}
		buf, payloads, lead := buildTenTagBuffer(t, set, active, rng, spc, noise)
		res, err := r.ReceiveAt(buf, lead)
		if err != nil {
			t.Fatal(err)
		}
		got := map[int][]byte{}
		for _, f := range res.Frames {
			if !f.OK || errors.Is(f.Err, ErrGhost) {
				continue
			}
			got[f.TagID] = f.Payload
		}
		ok := len(got) == len(active)
		for _, id := range active {
			if !bytes.Equal(got[id], payloads[id]) {
				ok = false
			}
		}
		if ok {
			exact++
		}
	}
	// Rare per-trial errors (copy-ghosts of CRC-failed frames) are a known
	// residual — see EXPERIMENTS.md; the bulk must decode exactly.
	if exact < trials-2 {
		t.Errorf("only %d/%d trials decoded the exact active set", exact, trials)
	}
}

func TestReceiveAtAnchorsLoneSparseTag(t *testing.T) {
	// A single 2NC tag is only identifiable with the reader timing hint:
	// its energy edge reveals its slot, not the frame start.
	set, err := pn.New2NCSet(10)
	if err != nil {
		t.Fatal(err)
	}
	const spc = 8
	const noise = 1e-10
	r, err := New(Config{Codes: set, SamplesPerChip: spc, NoiseFloorW: noise})
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(4))
	for _, active := range []int{0, 3, 7, 9} {
		tg, err := tag.New(active, tag.Config{Code: set.Codes[active], SamplesPerChip: spc}, geom.Point{})
		if err != nil {
			t.Fatal(err)
		}
		payload := []byte{0xC0, 0xFF, 0xEE}
		w, err := tg.Waveform(payload)
		if err != nil {
			t.Fatal(err)
		}
		const lead = 2560
		buf := make([]complex128, lead+len(w)+300)
		amp := complex(math.Sqrt(noise*100), 0)
		for k, v := range w {
			buf[lead+k] += v * amp
		}
		channel.AWGN(rng, buf, noise)
		res, err := r.ReceiveAt(buf, lead)
		if err != nil {
			t.Fatal(err)
		}
		okIDs := res.AckIDs()
		if len(okIDs) != 1 || okIDs[0] != active {
			t.Errorf("active=%d: decoded IDs %v, want [%d]", active, okIDs, active)
		}
	}
}

func TestRefineEdgeFindsRise(t *testing.T) {
	set, _ := pn.NewGoldSet(5, 2)
	r, err := New(Config{Codes: set, SamplesPerChip: 4, NoiseFloorW: 1e-10})
	if err != nil {
		t.Fatal(err)
	}
	const n = 4000
	const noise = 1e-10
	power := make([]float64, n)
	rng := rand.New(rand.NewSource(5))
	for i := range power {
		power[i] = noise * rng.ExpFloat64()
	}
	const rise = 2000
	for i := rise; i < n; i++ {
		power[i] += noise * 50
	}
	edge := r.refineEdge(power, rise-100, noise)
	if edge < rise-2 || edge > rise+16 {
		t.Errorf("edge %d, want ≈%d", edge, rise)
	}
	// Zero noise estimate falls back to the coarse start.
	if got := r.refineEdge(power, 123, 0); got != 123 {
		t.Errorf("fallback edge %d, want 123", got)
	}
}
