package workload_test

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"strings"
	"testing"

	"cmppower/internal/splash"
	"cmppower/internal/workload"
)

// streamCase is one program instance whose streams TestStreamsPinned
// drains: every thread of n, at one seed.
type streamCase struct {
	name string
	prog *workload.Program
	n    int
	seed uint64
}

// kernelCase wraps kernels in a two-pass loop, so each kernel runs again
// after the others (re-executions reuse per-thread cursors and any
// per-kernel tables).
func kernelCase(name string, n int, ks ...workload.Kernel) streamCase {
	body := make([]workload.Step, len(ks))
	for i, k := range ks {
		body[i] = k
	}
	return streamCase{
		name: name,
		prog: &workload.Program{Name: name, Steps: []workload.Step{workload.Loop{Times: 2, Body: body}}},
		n:    n,
		seed: 11,
	}
}

// pinKernel is the synthetic kernel the cases below vary one field of.
func pinKernel() workload.Kernel {
	return workload.Kernel{
		Accesses: 1500, ComputePerMem: 3, FPFrac: 0.3, BranchFrac: 0.12, WriteFrac: 0.3,
		Region: workload.Region{Base: 1 << 30, Size: 1 << 16, Scope: workload.Partition},
		Divide: true,
	}
}

// streamCases reaches every SPLASH-2 model and every mode of the batch
// emitter: hot+strided, hot+random, strided and random addresses, the
// stride-longer-than-window wrap, non-power-of-two hot and partition
// windows, Bernoulli fractions at 0, 1 and 2^-60, zero-length compute
// bursts, jitter, and kernels that differ in one burst-table input only.
func streamCases() []streamCase {
	var cases []streamCase
	for _, app := range splash.Catalog() {
		p := app.Program(0.05)
		for _, n := range []int{1, 3, 16} {
			for _, seed := range []uint64{1, 0x5eed} {
				cases = append(cases, streamCase{fmt.Sprintf("%s/n=%d/seed=%#x", app.Name, n, seed), p, n, seed})
			}
		}
	}
	with := func(mut func(*workload.Kernel)) workload.Kernel {
		k := pinKernel()
		mut(&k)
		return k
	}
	hotStrided := func(k *workload.Kernel) { k.HotFrac, k.HotBytes, k.StrideBytes = 0.6, 4096, 24 }
	hotRandom := func(k *workload.Kernel) { k.HotFrac, k.HotBytes = 0.6, 4096 }
	tiny := 0x1p-60
	cases = append(cases,
		kernelCase("hot+strided", 3, with(hotStrided)),
		kernelCase("hot+random", 3, with(hotRandom)),
		kernelCase("strided", 3, with(func(k *workload.Kernel) { k.StrideBytes = 40 })),
		kernelCase("random", 3, pinKernel()),
		kernelCase("stride>window", 3, with(func(k *workload.Kernel) {
			k.StrideBytes = 5000
			k.Region = workload.Region{Base: 1 << 30, Size: 4096, Scope: workload.PerThread}
		})),
		kernelCase("hot+strided/stride>window", 3, with(func(k *workload.Kernel) {
			hotStrided(k)
			k.StrideBytes = 5000
			k.Region = workload.Region{Base: 1 << 30, Size: 4800, Scope: workload.Shared}
		})),
		kernelCase("hot+random/odd-hot", 3, with(func(k *workload.Kernel) {
			hotRandom(k)
			k.HotBytes = 3000
			k.Region = workload.Region{Base: 1 << 30, Size: 1 << 20, Scope: workload.Shared}
		})),
		kernelCase("hot+strided/odd-hot", 3, with(func(k *workload.Kernel) {
			hotStrided(k)
			k.HotBytes = 24 << 10
			k.Region = workload.Region{Base: 1 << 30, Size: 1 << 20, Scope: workload.Partition}
		})),
		kernelCase("hot/clamped-to-region", 3, with(func(k *workload.Kernel) {
			k.HotFrac = 0.5
			k.Region = workload.Region{Base: 1 << 30, Size: 10000, Scope: workload.PerThread}
		})),
		kernelCase("hot/4-byte-partition", 3, with(func(k *workload.Kernel) {
			k.HotFrac = 0.5
			k.Region = workload.Region{Base: 1 << 30, Size: 4, Scope: workload.Partition}
		})),
		kernelCase("random/odd-partition", 3, with(func(k *workload.Kernel) {
			k.Region = workload.Region{Base: 1 << 30, Size: 1 << 20, Scope: workload.Partition}
		})),
		kernelCase("random/odd-partition/n=7", 7, with(func(k *workload.Kernel) {
			hotRandom(k)
			k.Region = workload.Region{Base: 1 << 30, Size: 3 << 20, Scope: workload.Partition}
		})),
		kernelCase("random/one-slot", 3, with(func(k *workload.Kernel) {
			k.Region = workload.Region{Base: 1 << 30, Size: 8, Scope: workload.Shared}
		})),
		kernelCase("hot=0", 3, with(func(k *workload.Kernel) { hotRandom(k); k.HotFrac = 0 })),
		kernelCase("hot=1", 3, with(func(k *workload.Kernel) { hotStrided(k); k.HotFrac = 1 })),
		kernelCase("hot=2^-60", 3, with(func(k *workload.Kernel) { hotStrided(k); k.HotFrac = tiny })),
		kernelCase("hot+random/hot=2^-60", 3, with(func(k *workload.Kernel) { hotRandom(k); k.HotFrac = tiny })),
		kernelCase("write=0", 3, with(func(k *workload.Kernel) { hotRandom(k); k.WriteFrac = 0 })),
		kernelCase("write=1", 3, with(func(k *workload.Kernel) { hotRandom(k); k.WriteFrac = 1 })),
		kernelCase("write=2^-60", 3, with(func(k *workload.Kernel) { hotRandom(k); k.WriteFrac = tiny })),
		kernelCase("cpm=0", 3, with(func(k *workload.Kernel) { hotStrided(k); k.ComputePerMem = 0 })),
		kernelCase("cpm=0.5", 3, with(func(k *workload.Kernel) { hotStrided(k); k.ComputePerMem = 0.5 })),
		kernelCase("cpm=1.3", 3, with(func(k *workload.Kernel) { hotRandom(k); k.ComputePerMem = 1.3 })),
		kernelCase("jitter", 3, with(func(k *workload.Kernel) { hotStrided(k); k.Jitter = 0.4 })),
		kernelCase("branchfrac-only", 3, with(hotRandom), with(func(k *workload.Kernel) { hotRandom(k); k.BranchFrac = 0.45 })),
		kernelCase("fpfrac-only", 3, with(hotRandom), with(func(k *workload.Kernel) { hotRandom(k); k.FPFrac = 0.8 })),
	)
	return cases
}

// pinnedStreams holds each case's digest. Any change to a modeled event
// (kind, address, burst counts, order) moves a digest; re-capture them
// only for a change that means to alter the workload model.
var pinnedStreams = map[string]uint64{
	"Barnes/n=1/seed=0x1":        0x83663cbf98047549,
	"Barnes/n=1/seed=0x5eed":     0x136c1d37dc872c48,
	"Barnes/n=3/seed=0x1":        0x6c5fdb43ac44acfc,
	"Barnes/n=3/seed=0x5eed":     0x47719bd4a75c4c85,
	"Barnes/n=16/seed=0x1":       0x9e11017a4a163bf5,
	"Barnes/n=16/seed=0x5eed":    0xfc2f5c64ced019d3,
	"Cholesky/n=1/seed=0x1":      0x4e30389685bc77f,
	"Cholesky/n=1/seed=0x5eed":   0x7c8e97e485d2d44b,
	"Cholesky/n=3/seed=0x1":      0x1a639f115a89d98d,
	"Cholesky/n=3/seed=0x5eed":   0x82f3cdcc1e4330ce,
	"Cholesky/n=16/seed=0x1":     0x23b2f1dd59843709,
	"Cholesky/n=16/seed=0x5eed":  0xb522d39c0cbbe3f2,
	"FFT/n=1/seed=0x1":           0xd02d777199858b04,
	"FFT/n=1/seed=0x5eed":        0x8846c4e424d78445,
	"FFT/n=3/seed=0x1":           0x5b11e5f60cca4aff,
	"FFT/n=3/seed=0x5eed":        0xa5f93f80c8216a8a,
	"FFT/n=16/seed=0x1":          0xd49033b2abf812e0,
	"FFT/n=16/seed=0x5eed":       0x35901e1c4905d492,
	"FMM/n=1/seed=0x1":           0x26d7468ba7a99467,
	"FMM/n=1/seed=0x5eed":        0x8cf61a290e4a97c6,
	"FMM/n=3/seed=0x1":           0xb42fdebc8a06e8f6,
	"FMM/n=3/seed=0x5eed":        0x9ba487aa06718c8d,
	"FMM/n=16/seed=0x1":          0x6a05e213a9c3f38a,
	"FMM/n=16/seed=0x5eed":       0xa93114e18c1d4a52,
	"LU/n=1/seed=0x1":            0x9589d4f78dc759aa,
	"LU/n=1/seed=0x5eed":         0x3bff199a1d760721,
	"LU/n=3/seed=0x1":            0xc282a28bfe6b524,
	"LU/n=3/seed=0x5eed":         0x25f29ec813a5a252,
	"LU/n=16/seed=0x1":           0xd30a8e18000b268a,
	"LU/n=16/seed=0x5eed":        0xae202e4b83d5b442,
	"Ocean/n=1/seed=0x1":         0x52ceb3c61b161c1,
	"Ocean/n=1/seed=0x5eed":      0x5bbaf62c7cd3e6f9,
	"Ocean/n=3/seed=0x1":         0xe96ebb020ae36fe3,
	"Ocean/n=3/seed=0x5eed":      0x8ac8ce5b5e56c3bd,
	"Ocean/n=16/seed=0x1":        0x6d41283bbc2be5e5,
	"Ocean/n=16/seed=0x5eed":     0xbfcfbc081f696bf3,
	"Radiosity/n=1/seed=0x1":     0x1710f33b3d52e468,
	"Radiosity/n=1/seed=0x5eed":  0x943b250f5aeee0a,
	"Radiosity/n=3/seed=0x1":     0xc61f9346a0013f44,
	"Radiosity/n=3/seed=0x5eed":  0xd33d92d3be69eac2,
	"Radiosity/n=16/seed=0x1":    0xa25a7c66c169aa8b,
	"Radiosity/n=16/seed=0x5eed": 0x7deefe8a5a4c3cda,
	"Radix/n=1/seed=0x1":         0x7f065f45549e15ce,
	"Radix/n=1/seed=0x5eed":      0x35cff15aa44c5ed7,
	"Radix/n=3/seed=0x1":         0xdce6006b4c9a96eb,
	"Radix/n=3/seed=0x5eed":      0xde75e9082221604e,
	"Radix/n=16/seed=0x1":        0x3e671448522566cd,
	"Radix/n=16/seed=0x5eed":     0x46eb12fb12d743e2,
	"Raytrace/n=1/seed=0x1":      0x2c416220c9bcca91,
	"Raytrace/n=1/seed=0x5eed":   0x89f277e3e4aa35e2,
	"Raytrace/n=3/seed=0x1":      0x13cebd84d92c6b56,
	"Raytrace/n=3/seed=0x5eed":   0x6879c54521496b65,
	"Raytrace/n=16/seed=0x1":     0x7c2db41e2a8185ac,
	"Raytrace/n=16/seed=0x5eed":  0x4f1867f25b2ed4a0,
	"Volrend/n=1/seed=0x1":       0x6a5c594bfaec8dae,
	"Volrend/n=1/seed=0x5eed":    0x551357906e0c6409,
	"Volrend/n=3/seed=0x1":       0x6e4f29aa31b27913,
	"Volrend/n=3/seed=0x5eed":    0xfe9c698a1d52ab8,
	"Volrend/n=16/seed=0x1":      0xe9affe49244ded38,
	"Volrend/n=16/seed=0x5eed":   0xa21e6b774d658070,
	"Water-Nsq/n=1/seed=0x1":     0x5e71f456ce083f5e,
	"Water-Nsq/n=1/seed=0x5eed":  0xbd8d1a2f47224a99,
	"Water-Nsq/n=3/seed=0x1":     0x34bc39fba13a4f54,
	"Water-Nsq/n=3/seed=0x5eed":  0xac449184a31f179,
	"Water-Nsq/n=16/seed=0x1":    0x49ef23469342cd43,
	"Water-Nsq/n=16/seed=0x5eed": 0x7c0de46aaabf119a,
	"Water-Sp/n=1/seed=0x1":      0x4414416304ba612,
	"Water-Sp/n=1/seed=0x5eed":   0xd3c85eb0cb5052dc,
	"Water-Sp/n=3/seed=0x1":      0xbb20391217a42377,
	"Water-Sp/n=3/seed=0x5eed":   0xf86592df2c95ac5,
	"Water-Sp/n=16/seed=0x1":     0xdda14bc9a6d13623,
	"Water-Sp/n=16/seed=0x5eed":  0x730378bb553a3571,
	"hot+strided":                0x7db756e14a1ee0da,
	"hot+random":                 0x73cab881e7c7246b,
	"strided":                    0xd9f753b4e250cdc0,
	"random":                     0x2583fcc9ee6d9e11,
	"stride>window":              0x4e49ed1f4147aec8,
	"hot+strided/stride>window":  0x159a3aaba77c4a21,
	"hot+random/odd-hot":         0x473d3d046bda0b18,
	"hot+strided/odd-hot":        0xec5484e0ae3778e3,
	"hot/clamped-to-region":      0xcf2895011e93970a,
	"hot/4-byte-partition":       0x334694f83c4036cf,
	"random/odd-partition":       0xa132f27c79baf996,
	"random/odd-partition/n=7":   0x6d2ca0e5335e8e86,
	"random/one-slot":            0x43503062aec1d774,
	"hot=0":                      0x2583fcc9ee6d9e11,
	"hot=1":                      0x87dfb89a0d9909bb,
	"hot=2^-60":                  0x93fa4689695fdba0,
	"hot+random/hot=2^-60":       0xaa1794399bfc11de,
	"write=0":                    0xcb1ba9c300375152,
	"write=1":                    0xa8f6c5e3b5b0679a,
	"write=2^-60":                0xcb1ba9c300375152,
	"cpm=0":                      0x9ea5c8cc1853eaea,
	"cpm=0.5":                    0x6d253692f20e3b6,
	"cpm=1.3":                    0xaa246d8867c41407,
	"jitter":                     0x27e73a93d2fa8959,
	"branchfrac-only":            0x66a5c7d69848baee,
	"fpfrac-only":                0x4bd2a20e00e612b2,
}

// eventDigest folds events into a running FNV-1a hash.
type eventDigest struct{ b [25]byte }

func (d *eventDigest) add(h interface{ Write([]byte) (int, error) }, ev workload.Event) {
	binary.LittleEndian.PutUint64(d.b[0:], ev.Addr)
	binary.LittleEndian.PutUint32(d.b[8:], uint32(ev.N))
	binary.LittleEndian.PutUint32(d.b[12:], uint32(ev.FP))
	binary.LittleEndian.PutUint32(d.b[16:], uint32(ev.Branches))
	binary.LittleEndian.PutUint32(d.b[20:], uint32(ev.ID))
	d.b[24] = byte(ev.Kind)
	h.Write(d.b[:])
}

// caseDigest drains every thread of c, in thread order, through Next
// (bufLen 0) or through NextBatch with a bufLen buffer, and hashes the
// events up to and including each thread's EvDone.
func caseDigest(t *testing.T, c streamCase, bufLen int) uint64 {
	t.Helper()
	h := fnv.New64a()
	var d eventDigest
	for tid := 0; tid < c.n; tid++ {
		var evs []workload.Event
		if bufLen == 0 {
			evs = drainNext(t, c.prog, tid, c.n, c.seed)
		} else {
			evs = drainBatch(t, c.prog, tid, c.n, c.seed, bufLen)
		}
		for _, ev := range evs {
			d.add(h, ev)
		}
	}
	return h.Sum64()
}

// TestStreamsPinned pins every case's event streams, drained one event
// at a time and in batches of 1, 7 and 256, to one digest captured on
// the reference generator. TestNextBatchMatchesNext alone cannot catch a
// change that moves both drains at once — Next and NextBatch read the
// same per-kernel burst tables — so the streams are pinned absolutely.
func TestStreamsPinned(t *testing.T) {
	var missing []string
	for _, c := range streamCases() {
		want := caseDigest(t, c, 0)
		for _, bufLen := range []int{1, 7, 256} {
			if got := caseDigest(t, c, bufLen); got != want {
				t.Errorf("%s: NextBatch(%d) digest %#x, Next %#x", c.name, bufLen, got, want)
			}
		}
		pin, ok := pinnedStreams[c.name]
		if !ok {
			missing = append(missing, fmt.Sprintf("\t%q: %#x,", c.name, want))
			continue
		}
		if want != pin {
			t.Errorf("%s: digest %#x, pinned %#x", c.name, want, pin)
		}
	}
	if len(missing) > 0 {
		t.Errorf("%d cases have no pinned digest; got:\n%s", len(missing), strings.Join(missing, "\n"))
	}
}
