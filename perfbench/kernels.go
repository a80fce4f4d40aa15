package main

import (
	"fmt"
	"math/rand"
	"runtime"
	"time"

	"cbma/internal/channel"
	"cbma/internal/dsp"
	"cbma/internal/sim"
)

// frameShape sizes the kernel rows after one workload's frames.
type frameShape struct {
	// Wave is one tag's frame waveform in samples (what the mix stage
	// fractionally delays); Buf the mixed round buffer (frame plus the
	// two-code tail) that AWGN, the power prefix sum and the envelope
	// correlation run over.
	Wave, Buf int
	// Templates are the receiver's preamble correlation templates; Lags is
	// one code period of correlation lags, the alignment search span.
	Templates [][]float64
	Lags      int
	NoisePowW float64
}

// shape builds an engine for the grid's largest tag count and reads the
// frame geometry off its public accessors.
func (g grid) shape() (frameShape, error) {
	scn := g.points(1, labelWarmup, 0)[len(g.Tags)*len(g.Distances)-1]
	e, err := sim.NewEngine(scn)
	if err != nil {
		return frameShape{}, err
	}
	wave, err := e.Tags()[0].Waveform(make([]byte, g.Payload))
	if err != nil {
		return frameShape{}, err
	}
	rc := e.Receiver().Config()
	pre, err := rc.Frame.Preamble()
	if err != nil {
		return frameShape{}, err
	}
	spc := scn.SamplesPerChip()
	sh := frameShape{Wave: len(wave), NoisePowW: scn.Channel.NoiseFloorW()}
	for _, code := range rc.Codes.Codes {
		disc := code.Discriminant()
		var t []float64
		for _, b := range pre {
			sign := 1.0
			if b == 0 {
				sign = -1
			}
			for _, v := range disc {
				for k := 0; k < spc; k++ {
					t = append(t, sign*v)
				}
			}
		}
		sh.Templates = append(sh.Templates, t)
		sh.Buf = len(wave) + 2*code.Length()*spc
		sh.Lags = code.Length() * spc
	}
	return sh, nil
}

// kernelStat is one kernel row: per-call time, allocations and allocated
// bytes, measured by calling the public function in a loop.
type kernelStat struct {
	NsPerOp, AllocsPerOp, BytesPerOp float64
	Calls                            int
}

// timeKernel calls fn in batches for about budget and reports the median
// batch's time per call and the mean allocations per call.
func timeKernel(budget time.Duration, fn func()) kernelStat {
	t0 := time.Now()
	fn() // warm, and size the batches to about a twentieth of the budget
	batch := int(budget / 20 / max(time.Since(t0), time.Microsecond))
	batch = min(max(batch, 1), 1024)
	var (
		ns     []float64
		m0, m1 runtime.MemStats
		calls  int
		start  = time.Now()
	)
	runtime.ReadMemStats(&m0)
	for time.Since(start) < budget || len(ns) < 5 {
		t0 := time.Now()
		for i := 0; i < batch; i++ {
			fn()
		}
		ns = append(ns, float64(time.Since(t0).Nanoseconds())/float64(batch))
		calls += batch
	}
	runtime.ReadMemStats(&m1)
	return kernelStat{
		NsPerOp:     median(ns),
		AllocsPerOp: float64(m1.Mallocs-m0.Mallocs) / float64(calls),
		BytesPerOp:  float64(m1.TotalAlloc-m0.TotalAlloc) / float64(calls),
		Calls:       calls,
	}
}

// kernelRows measures the dsp and channel kernels the round pipeline calls,
// on buffers of the workload's frame shape. Bytes moved are computed from
// the buffer sizes (loads plus stores of one call), not measured.
func kernelRows(o *outcome, sh frameShape) error {
	const budget = 250 * time.Millisecond
	rng := rand.New(rand.NewSource(1))
	wave := make([]complex128, sh.Wave)
	for i := range wave {
		wave[i] = complex(float64(i%2), 0)
	}
	buf := make([]complex128, sh.Buf)
	power := make([]float64, sh.Buf)
	for i := range power {
		power[i] = rng.Float64()
	}
	var prefix []float64

	m := len(sh.Templates[0])
	count := sh.Lags
	if count+m-1 > sh.Buf {
		return fmt.Errorf("round buffer %d shorter than %d lags of template %d", sh.Buf, count, m)
	}
	bank, err := dsp.NewFilterBank(sh.Templates)
	if err != nil {
		return err
	}
	rows := make([][]float64, len(sh.Templates))
	for i := range rows {
		rows[i] = make([]float64, count)
	}
	var xcorrErr error

	rowsOf := map[string]struct {
		stat  kernelStat
		moved float64
	}{
		// FractionalDelayInPlace: load and store every complex sample.
		"dsp.fracdelay": {timeKernel(budget, func() { dsp.FractionalDelayInPlace(wave, 0.37) }), float64(32 * sh.Wave)},
		// CorrelateRealAll over one code period of lags: the envelope span
		// and every template read once, every row written.
		"dsp.xcorr": {timeKernel(budget, func() {
			if err := bank.CorrelateRealAll(power, 0, count, nil, rows); err != nil {
				xcorrErr = err
			}
		}), float64(8*(count+m-1) + 8*count*len(rows) + 8*m*len(rows))},
		// PrefixSumInto: load n, store n+1.
		"dsp.prefix": {timeKernel(budget, func() { prefix = dsp.PrefixSumInto(prefix, power) }), float64(8*sh.Buf + 8*(sh.Buf+1))},
		// AWGN: load and store every complex sample.
		"channel.awgn": {timeKernel(budget, func() { channel.AWGN(rng, buf, sh.NoisePowW) }), float64(32 * sh.Buf)},
	}
	if xcorrErr != nil {
		return xcorrErr
	}
	meta := map[string]any{}
	for name, r := range rowsOf {
		o.Metrics[name+"_ns"] = r.stat.NsPerOp
		o.Metrics[name+"_allocs"] = r.stat.AllocsPerOp
		o.Metrics[name+"_bytes"] = r.stat.BytesPerOp
		o.Metrics[name+"_bytes_moved"] = r.moved
		meta[name] = map[string]any{"calls": r.stat.Calls}
	}
	meta["shape"] = map[string]int{"wave": sh.Wave, "buf": sh.Buf, "templates": len(sh.Templates), "template_len": m}
	o.Meta["kernels"] = meta
	return nil
}
