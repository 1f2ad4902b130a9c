// Package splash provides synthetic models of the twelve SPLASH-2
// applications the paper evaluates (Table 2), expressed in the workload IR.
//
// The models are not the SPLASH-2 codes; they are parameterized stand-ins
// tuned to land each application in the same qualitative class the paper's
// evaluation depends on:
//
//   - compute intensity and power class (FMM, LU, Water high; Radix low),
//   - memory-boundedness (Radix, Ocean, Cholesky stall on DRAM),
//   - parallel-efficiency behavior (serial fractions, lock contention,
//     barrier imbalance, communication via shared writes),
//   - caching effects (Ocean's partitioned grids gain aggregate L1
//     capacity with more cores).
//
// See DESIGN.md ("Substitutions") for why this preserves the paper's
// evaluation semantics.
package splash

import (
	"fmt"
	"slices"
	"sort"

	"cmppower/internal/cpu"
	"cmppower/internal/workload"
)

// Address-space layout: disjoint bases for the standard regions.
const (
	sharedBase  = 0x1000_0000 // shared data structures
	gridBase    = 0x3000_0000 // partitioned grids/matrices
	streamBase  = 0x5000_0000 // large streaming arrays
	privateBase = 0x9000_0000 // per-thread heaps (PerThread scope)
)

// App describes one application model.
type App struct {
	// Name is the SPLASH-2 application name.
	Name string
	// ProblemSize is the paper's Table 2 input description.
	ProblemSize string
	// IPCNonMem is the dependence-limited non-memory IPC of the code.
	IPCNonMem float64
	// IL1MissRate models instruction-footprint pressure.
	IL1MissRate float64
	// Class is a short qualitative tag used in reports.
	Class string
	// PowerOfTwoOnly marks applications that only run with power-of-two
	// thread counts (the paper notes several SPLASH-2 codes do).
	PowerOfTwoOnly bool
	// build constructs the program at a work scale factor.
	build func(scale float64) *workload.Program
}

// Program instantiates the application's program at the given work scale
// (1.0 = the repository's reference size). Scales below ~0.01 are clamped
// so every phase still executes.
func (a App) Program(scale float64) *workload.Program {
	if scale <= 0.01 {
		scale = 0.01
	}
	return a.build(scale)
}

// CoreConfig returns the EV6 core configuration tuned for this application.
func (a App) CoreConfig() cpu.Config {
	cfg := cpu.DefaultConfig()
	cfg.IPCNonMem = a.IPCNonMem
	cfg.IL1MissRate = a.IL1MissRate
	return cfg
}

// RunsOn reports whether the application supports n threads.
func (a App) RunsOn(n int) bool {
	if !a.PowerOfTwoOnly {
		return n >= 1
	}
	return n >= 1 && n&(n-1) == 0
}

// sc scales a count, keeping at least 1.
func sc(n int, scale float64) int {
	v := int(float64(n) * scale)
	if v < 1 {
		v = 1
	}
	return v
}

// catalog is the twelve application models, sorted by name, built once.
// Lookups read it in place; Catalog hands out copies, so no caller can
// change what the next one sees.
var catalog = func() []App {
	apps := []App{
		barnes(), cholesky(), fft(), fmm(), lu(), ocean(),
		radiosity(), radix(), raytrace(), volrend(), waterNsq(), waterSp(),
	}
	sort.Slice(apps, func(i, j int) bool { return apps[i].Name < apps[j].Name })
	return apps
}()

// Catalog returns all twelve application models, sorted by name. The
// slice is the caller's own.
func Catalog() []App { return slices.Clone(catalog) }

// ByName finds an application model by (case-sensitive) name.
func ByName(name string) (App, error) {
	for _, a := range catalog {
		if a.Name == name {
			return a, nil
		}
	}
	return App{}, fmt.Errorf("splash: unknown application %q", name)
}

// Names returns the catalog's names in order.
func Names() []string {
	out := make([]string, len(catalog))
	for i, a := range catalog {
		out[i] = a.Name
	}
	return out
}

func barnes() App {
	return App{
		Name: "Barnes", ProblemSize: "16K particles",
		IPCNonMem: 2.4, IL1MissRate: 0.0015, Class: "compute/tree",
		build: func(s float64) *workload.Program {
			return &workload.Program{
				Name: "Barnes",
				Steps: []workload.Step{
					workload.Serial{Body: []workload.Step{workload.Compute{N: sc(30000, s), FPFrac: 0.4}}},
					workload.Barrier{ID: 0},
					workload.Loop{Times: 4, Body: []workload.Step{
						// Tree build: shared writes under a lock.
						workload.Critical{Lock: 0, Body: []workload.Step{
							workload.Compute{N: sc(300, s), FPFrac: 0.2},
						}},
						// Force computation: tree walks over shared octree.
						workload.Kernel{
							Accesses: sc(30000, s), ComputePerMem: 24, FPFrac: 0.55, BranchFrac: 0.12,
							WriteFrac: 0.05, HotFrac: 0.93, HotBytes: 24 << 10, Jitter: 0.10, Divide: true,
							Region: workload.Region{Base: sharedBase, Size: 2 << 20, Scope: workload.Shared},
						},
						// Position update: private particle slices.
						workload.Kernel{
							Accesses: sc(8000, s), ComputePerMem: 12, FPFrac: 0.6,
							WriteFrac: 0.5, StrideBytes: 8, Divide: true,
							Region: workload.Region{Base: gridBase, Size: 1 << 20, Scope: workload.Partition},
						},
						workload.Barrier{ID: 1},
					}},
				},
			}
		},
	}
}

func cholesky() App {
	return App{
		Name: "Cholesky", ProblemSize: "tk15.O",
		IPCNonMem: 2.2, IL1MissRate: 0.0020, Class: "task-queue/memory",
		build: func(s float64) *workload.Program {
			return &workload.Program{
				Name: "Cholesky",
				Steps: []workload.Step{
					workload.Serial{Body: []workload.Step{workload.Compute{N: sc(60000, s), FPFrac: 0.3}}},
					workload.Barrier{ID: 0},
					workload.Loop{Times: 6, Body: []workload.Step{
						// Task dequeue.
						workload.Critical{Lock: 0, Body: []workload.Step{
							workload.Compute{N: 80, FPFrac: 0},
						}},
						// Supernode update: large matrix panels, poor reuse.
						workload.Kernel{
							Accesses: sc(14000, s), ComputePerMem: 11, FPFrac: 0.55, BranchFrac: 0.06,
							WriteFrac: 0.35, HotFrac: 0.72, HotBytes: 32 << 10, Jitter: 0.28, Divide: true,
							Region: workload.Region{Base: streamBase, Size: 10 << 20, Scope: workload.Shared},
						},
						workload.Barrier{ID: 1},
					}},
				},
			}
		},
	}
}

func fft() App {
	return App{
		Name: "FFT", ProblemSize: "64K points",
		IPCNonMem: 2.5, IL1MissRate: 0.0008, Class: "compute/all-to-all",
		PowerOfTwoOnly: true,
		build: func(s float64) *workload.Program {
			return &workload.Program{
				Name: "FFT",
				Steps: []workload.Step{
					workload.Serial{Body: []workload.Step{workload.Compute{N: sc(15000, s), FPFrac: 0.5}}},
					workload.Barrier{ID: 0},
					workload.Loop{Times: 3, Body: []workload.Step{
						// Local butterfly stage: strided over own partition.
						workload.Kernel{
							Accesses: sc(16000, s), ComputePerMem: 10, FPFrac: 0.62, BranchFrac: 0.05,
							WriteFrac: 0.5, StrideBytes: 8, HotFrac: 0.5, HotBytes: 16 << 10, Divide: true,
							Region: workload.Region{Base: gridBase, Size: 2 << 20, Scope: workload.Partition},
						},
						workload.Barrier{ID: 1},
						// Transpose: all-to-all writes into the shared matrix.
						workload.Kernel{
							Accesses: sc(7000, s), ComputePerMem: 5, FPFrac: 0.3,
							WriteFrac: 0.45, HotFrac: 0.45, HotBytes: 8 << 10, Divide: true,
							Region: workload.Region{Base: sharedBase, Size: 2 << 20, Scope: workload.Shared},
						},
						workload.Barrier{ID: 2},
					}},
				},
			}
		},
	}
}

func fmm() App {
	return App{
		Name: "FMM", ProblemSize: "16K particles",
		IPCNonMem: 2.8, IL1MissRate: 0.0010, Class: "compute-intensive",
		build: func(s float64) *workload.Program {
			return &workload.Program{
				Name: "FMM",
				Steps: []workload.Step{
					workload.Serial{Body: []workload.Step{workload.Compute{N: sc(20000, s), FPFrac: 0.4}}},
					workload.Barrier{ID: 0},
					workload.Loop{Times: 4, Body: []workload.Step{
						// Multipole expansions: heavy FP on private cells.
						workload.Kernel{
							Accesses: sc(12000, s), ComputePerMem: 48, FPFrac: 0.68, BranchFrac: 0.05,
							WriteFrac: 0.3, StrideBytes: 8, HotFrac: 0.9, HotBytes: 32 << 10, Jitter: 0.05, Divide: true,
							Region: workload.Region{Base: privateBase, Size: 1 << 20, Scope: workload.Partition},
						},
						// Interaction lists: modest shared reads.
						workload.Kernel{
							Accesses: sc(5000, s), ComputePerMem: 30, FPFrac: 0.6,
							WriteFrac: 0.05, HotFrac: 0.85, HotBytes: 24 << 10, Divide: true,
							Region: workload.Region{Base: sharedBase, Size: 512 << 10, Scope: workload.Shared},
						},
						workload.Barrier{ID: 1},
					}},
				},
			}
		},
	}
}

func lu() App {
	return App{
		Name: "LU", ProblemSize: "512x512 matrix, 16x16 blocks",
		IPCNonMem: 2.6, IL1MissRate: 0.0006, Class: "compute/blocked",
		PowerOfTwoOnly: true,
		build: func(s float64) *workload.Program {
			return &workload.Program{
				Name: "LU",
				Steps: []workload.Step{
					workload.Serial{Body: []workload.Step{workload.Compute{N: sc(15000, s), FPFrac: 0.5}}},
					workload.Barrier{ID: 0},
					workload.Loop{Times: 6, Body: []workload.Step{
						// Diagonal factorization: one thread's work.
						workload.Serial{Body: []workload.Step{workload.Compute{N: sc(9000, s), FPFrac: 0.6}}},
						workload.Barrier{ID: 1},
						// Trailing-matrix update: blocked, partitioned.
						workload.Kernel{
							Accesses: sc(13000, s), ComputePerMem: 28, FPFrac: 0.65, BranchFrac: 0.04,
							WriteFrac: 0.4, StrideBytes: 8, HotFrac: 0.88, HotBytes: 32 << 10, Jitter: 0.14, Divide: true,
							Region: workload.Region{Base: gridBase, Size: 2 << 20, Scope: workload.Partition},
						},
						workload.Barrier{ID: 2},
					}},
				},
			}
		},
	}
}

func ocean() App {
	return App{
		Name: "Ocean", ProblemSize: "514x514 ocean",
		IPCNonMem: 1.8, IL1MissRate: 0.0008, Class: "memory/grid",
		PowerOfTwoOnly: true,
		build: func(s float64) *workload.Program {
			return &workload.Program{
				Name: "Ocean",
				Steps: []workload.Step{
					workload.Serial{Body: []workload.Step{workload.Compute{N: sc(10000, s), FPFrac: 0.4}}},
					workload.Barrier{ID: 0},
					workload.Loop{Times: 5, Body: []workload.Step{
						// Stencil sweep over partitioned grids whose per-core
						// slice fits in L1 only at higher core counts — the
						// aggregate-capacity (superlinear) effect.
						workload.Kernel{
							Accesses: sc(22000, s), ComputePerMem: 7, FPFrac: 0.5, BranchFrac: 0.04,
							WriteFrac: 0.4, StrideBytes: 8, HotFrac: 0.45, HotBytes: 16 << 10, Divide: true,
							Region: workload.Region{Base: gridBase, Size: 1536 << 10, Scope: workload.Partition},
						},
						// Long streaming passes over big shared arrays: DRAM.
						workload.Kernel{
							Accesses: sc(9000, s), ComputePerMem: 4, FPFrac: 0.4,
							WriteFrac: 0.3, StrideBytes: 32, Divide: true,
							Region: workload.Region{Base: streamBase, Size: 24 << 20, Scope: workload.Shared},
						},
						workload.Barrier{ID: 1},
					}},
				},
			}
		},
	}
}

func radiosity() App {
	return App{
		Name: "Radiosity", ProblemSize: "room -ae 5000.0 -en 0.05 -bf 0.1",
		IPCNonMem: 2.0, IL1MissRate: 0.0025, Class: "irregular/locks",
		build: func(s float64) *workload.Program {
			return &workload.Program{
				Name: "Radiosity",
				Steps: []workload.Step{
					workload.Serial{Body: []workload.Step{workload.Compute{N: sc(40000, s), FPFrac: 0.3}}},
					workload.Barrier{ID: 0},
					workload.Loop{Times: 8, Body: []workload.Step{
						// Task-queue pop under a hot lock.
						workload.Critical{Lock: 0, Body: []workload.Step{
							workload.Compute{N: 120, FPFrac: 0.1},
						}},
						// Visibility interactions over the shared scene.
						workload.Kernel{
							Accesses: sc(6500, s), ComputePerMem: 14, FPFrac: 0.45, BranchFrac: 0.14,
							WriteFrac: 0.25, HotFrac: 0.82, HotBytes: 24 << 10, Jitter: 0.30, Divide: true,
							Region: workload.Region{Base: sharedBase, Size: 5 << 20, Scope: workload.Shared},
						},
					}},
					workload.Barrier{ID: 1},
				},
			}
		},
	}
}

func radix() App {
	return App{
		Name: "Radix", ProblemSize: "1M integers, radix 1024",
		IPCNonMem: 2.2, IL1MissRate: 0.0003, Class: "memory-bound",
		PowerOfTwoOnly: true,
		build: func(s float64) *workload.Program {
			return &workload.Program{
				Name: "Radix",
				Steps: []workload.Step{
					workload.Serial{Body: []workload.Step{workload.Compute{N: sc(6000, s), FPFrac: 0}}},
					workload.Barrier{ID: 0},
					workload.Loop{Times: 2, Body: []workload.Step{
						// Histogram: stream own keys.
						workload.Kernel{
							Accesses: sc(16000, s), ComputePerMem: 6, FPFrac: 0, BranchFrac: 0.05,
							WriteFrac: 0.1, StrideBytes: 8, HotFrac: 0.55, HotBytes: 8 << 10, Divide: true,
							Region: workload.Region{Base: streamBase, Size: 8 << 20, Scope: workload.Partition},
						},
						workload.Barrier{ID: 1},
						// Permutation: scattered writes across the whole
						// destination array — DRAM-bound by construction.
						workload.Kernel{
							Accesses: sc(18000, s), ComputePerMem: 5, FPFrac: 0, BranchFrac: 0.03,
							WriteFrac: 0.85, HotFrac: 0.25, HotBytes: 8 << 10, Divide: true,
							Region: workload.Region{Base: sharedBase, Size: 16 << 20, Scope: workload.Shared},
						},
						workload.Barrier{ID: 2},
					}},
				},
			}
		},
	}
}

func raytrace() App {
	return App{
		Name: "Raytrace", ProblemSize: "car",
		IPCNonMem: 2.1, IL1MissRate: 0.0040, Class: "irregular/reads",
		build: func(s float64) *workload.Program {
			return &workload.Program{
				Name: "Raytrace",
				Steps: []workload.Step{
					workload.Serial{Body: []workload.Step{workload.Compute{N: sc(25000, s), FPFrac: 0.3}}},
					workload.Barrier{ID: 0},
					workload.Loop{Times: 6, Body: []workload.Step{
						workload.Critical{Lock: 0, Body: []workload.Step{
							workload.Compute{N: 60, FPFrac: 0},
						}},
						// Ray-scene intersections: random reads of the scene.
						workload.Kernel{
							Accesses: sc(8000, s), ComputePerMem: 17, FPFrac: 0.4, BranchFrac: 0.16,
							WriteFrac: 0.06, HotFrac: 0.8, HotBytes: 24 << 10, Jitter: 0.24, Divide: true,
							Region: workload.Region{Base: sharedBase, Size: 6 << 20, Scope: workload.Shared},
						},
					}},
					workload.Barrier{ID: 1},
				},
			}
		},
	}
}

func volrend() App {
	return App{
		Name: "Volrend", ProblemSize: "head",
		IPCNonMem: 2.3, IL1MissRate: 0.0030, Class: "imbalanced",
		build: func(s float64) *workload.Program {
			return &workload.Program{
				Name: "Volrend",
				Steps: []workload.Step{
					workload.Serial{Body: []workload.Step{workload.Compute{N: sc(50000, s), FPFrac: 0.2}}},
					workload.Barrier{ID: 0},
					workload.Loop{Times: 4, Body: []workload.Step{
						workload.Critical{Lock: 0, Body: []workload.Step{
							workload.Compute{N: 90, FPFrac: 0},
						}},
						// Ray casting through the shared volume; strong
						// view-dependent imbalance.
						workload.Kernel{
							Accesses: sc(7000, s), ComputePerMem: 13, FPFrac: 0.35, BranchFrac: 0.12,
							WriteFrac: 0.1, HotFrac: 0.78, HotBytes: 24 << 10, Jitter: 0.38, Divide: true,
							Region: workload.Region{Base: sharedBase, Size: 4 << 20, Scope: workload.Shared},
						},
						workload.Barrier{ID: 1},
					}},
				},
			}
		},
	}
}

func waterNsq() App {
	return App{
		Name: "Water-Nsq", ProblemSize: "512 molecules",
		IPCNonMem: 2.6, IL1MissRate: 0.0006, Class: "compute/n-squared",
		build: func(s float64) *workload.Program {
			return &workload.Program{
				Name: "Water-Nsq",
				Steps: []workload.Step{
					workload.Serial{Body: []workload.Step{workload.Compute{N: sc(12000, s), FPFrac: 0.5}}},
					workload.Barrier{ID: 0},
					workload.Loop{Times: 3, Body: []workload.Step{
						// Pairwise forces: heavy FP over the molecule array.
						workload.Kernel{
							Accesses: sc(11000, s), ComputePerMem: 38, FPFrac: 0.7, BranchFrac: 0.04,
							WriteFrac: 0.15, HotFrac: 0.9, HotBytes: 32 << 10, Jitter: 0.06, Divide: true,
							Region: workload.Region{Base: sharedBase, Size: 512 << 10, Scope: workload.Shared},
						},
						// Accumulate forces under per-partition locks.
						workload.Critical{Lock: 0, Body: []workload.Step{
							workload.Compute{N: 100, FPFrac: 0.6},
						}},
						workload.Barrier{ID: 1},
					}},
				},
			}
		},
	}
}

func waterSp() App {
	return App{
		Name: "Water-Sp", ProblemSize: "512 molecules",
		IPCNonMem: 2.7, IL1MissRate: 0.0005, Class: "compute/spatial",
		build: func(s float64) *workload.Program {
			return &workload.Program{
				Name: "Water-Sp",
				Steps: []workload.Step{
					workload.Serial{Body: []workload.Step{workload.Compute{N: sc(10000, s), FPFrac: 0.5}}},
					workload.Barrier{ID: 0},
					workload.Loop{Times: 3, Body: []workload.Step{
						// Spatial cells: mostly private traffic.
						workload.Kernel{
							Accesses: sc(10000, s), ComputePerMem: 42, FPFrac: 0.7, BranchFrac: 0.04,
							WriteFrac: 0.2, StrideBytes: 8, HotFrac: 0.92, HotBytes: 32 << 10, Jitter: 0.05, Divide: true,
							Region: workload.Region{Base: gridBase, Size: 768 << 10, Scope: workload.Partition},
						},
						// Cell-boundary exchanges.
						workload.Kernel{
							Accesses: sc(1500, s), ComputePerMem: 20, FPFrac: 0.5,
							WriteFrac: 0.3, HotFrac: 0.7, HotBytes: 16 << 10, Divide: true,
							Region: workload.Region{Base: sharedBase, Size: 256 << 10, Scope: workload.Shared},
						},
						workload.Barrier{ID: 1},
					}},
				},
			}
		},
	}
}
