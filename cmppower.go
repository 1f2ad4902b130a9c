// Package cmppower reproduces "Power-Performance Implications of
// Thread-level Parallelism on Chip Multiprocessors" (Li & Martínez,
// ISPASS 2005): an analytical model connecting core count, parallel
// efficiency and voltage/frequency scaling, plus a detailed
// power/performance/thermal CMP simulator that validates it on synthetic
// SPLASH-2 workload models.
//
// The package is a facade over the internal substrates:
//
//   - AnalyticModel (internal/core) solves the paper's two scenarios in
//     closed form with thermal coupling: power optimization under a
//     performance target (Fig. 1) and performance optimization under a
//     power budget (Fig. 2).
//   - Experiment (internal/experiment) drives the simulator stack — MESI
//     cache hierarchy over a snooping bus, EV6-class cores, Wattch-style
//     power accounting, HotSpot-style thermal solving, chip-wide DVFS —
//     through the paper's §4 methodology (Fig. 3, Fig. 4).
//   - The workload IR and the twelve SPLASH-2 application models are
//     exposed for building custom studies.
//
// Quick start:
//
//	model, _ := cmppower.NewAnalyticModel(cmppower.Tech65())
//	best, _ := model.PeakSpeedup(1.0) // optimal core count under budget
//
//	rig, _ := cmppower.NewExperiment(1.0)
//	app, _ := cmppower.AppByName("Radix")
//	res, _ := rig.ScenarioI(app, []int{1, 2, 4, 8, 16})
//
// See cmd/cmppower for the command-line harness that regenerates every
// table and figure, and EXPERIMENTS.md for the paper-vs-measured record.
package cmppower

import (
	"cmppower/internal/cmp"
	"cmppower/internal/core"
	"cmppower/internal/dvfs"
	"cmppower/internal/experiment"
	"cmppower/internal/faults"
	"cmppower/internal/obs"
	"cmppower/internal/phys"
	"cmppower/internal/scenario"
	"cmppower/internal/splash"
	"cmppower/internal/workload"
)

// Technology describes one CMOS process node: supply/threshold voltages,
// the alpha-power law, the leakage curve fit and the static power share.
type Technology = phys.Technology

// Tech130 returns the calibrated 130 nm technology (paper §2 plots).
func Tech130() Technology { return phys.Tech130() }

// Tech65 returns the calibrated 65 nm technology (paper §2 plots and the
// experimental chip of Table 1).
func Tech65() Technology { return phys.Tech65() }

// Reference temperatures of the model, in °C.
const (
	RoomTempC    = phys.RoomTempC
	AmbientTempC = phys.AmbientTempC
	MaxDieTempC  = phys.MaxDieTempC
)

// AnalyticModel is the paper's analytical model (Eqs. 1–11) with thermal
// coupling.
type AnalyticModel = core.Model

// AnalyticConfig configures analytical-model construction.
type AnalyticConfig = core.Config

// AnalyticPoint is a solved analytical operating point.
type AnalyticPoint = core.OperatingPoint

// NewAnalyticModel builds the paper's §2 model (32-way CMP, single-core
// reference at 100 °C) for the given technology.
func NewAnalyticModel(tech Technology) (*AnalyticModel, error) {
	return core.New(core.DefaultConfig(tech))
}

// NewAnalyticModelWithConfig builds an analytical model with a custom chip
// size or reference temperature.
func NewAnalyticModelWithConfig(cfg AnalyticConfig) (*AnalyticModel, error) {
	return core.New(cfg)
}

// EpsGrid returns a uniform efficiency grid for Fig. 1 sweeps.
func EpsGrid(lo, hi float64, points int) ([]float64, error) {
	return core.EpsGrid(lo, hi, points)
}

// OperatingPoint is one (frequency, voltage) pair of the chip's DVFS
// ladder.
type OperatingPoint = dvfs.OperatingPoint

// DVFSTable is an ascending ladder of operating points.
type DVFSTable = dvfs.Table

// NewDVFSTable returns the experimental chip's Pentium-M-style ladder
// (200 MHz steps up to the technology's nominal frequency).
func NewDVFSTable(tech Technology) (*DVFSTable, error) {
	return dvfs.PentiumMStyle(tech)
}

// App is one SPLASH-2 application model (paper Table 2).
type App = splash.App

// Apps returns all twelve SPLASH-2 application models.
func Apps() []App { return splash.Catalog() }

// AppByName looks up an application model ("Barnes", "Radix", ...).
func AppByName(name string) (App, error) { return splash.ByName(name) }

// AppNames returns the application names in catalog order.
func AppNames() []string { return splash.Names() }

// Experiment is the calibrated experimental apparatus of paper §3–4: the
// 16-core 65 nm chip, its thermal model, the renormalized power meter and
// the DVFS ladder.
type Experiment = experiment.Rig

// Measurement is one simulated run with its power/thermal evaluation.
type Measurement = experiment.Measurement

// ScenarioIResult holds one application's Fig. 3 data.
type ScenarioIResult = experiment.ScenarioIResult

// ScenarioIRow is one configuration of the Fig. 3 experiment.
type ScenarioIRow = experiment.ScenarioIRow

// ScenarioIIResult holds one application's Fig. 4 data.
type ScenarioIIResult = experiment.ScenarioIIResult

// ScenarioIIRow is one configuration of the Fig. 4 experiment.
type ScenarioIIRow = experiment.ScenarioIIRow

// NewExperiment builds and calibrates the experimental apparatus at the
// given workload scale (1.0 = reference problem sizes; smaller values run
// proportionally faster).
func NewExperiment(scale float64) (*Experiment, error) {
	return experiment.NewRig(scale)
}

// ChipScenario is a declarative chip configuration (internal/scenario):
// technology node, core organization (including heterogeneous classes),
// per-cluster DVFS domains, die/floorplan (including 3D stacking), and
// thermal limits, with a canonical JSON form and a content digest.
type ChipScenario = scenario.Scenario

// LoadScenario strictly decodes and validates a chip scenario file.
func LoadScenario(path string) (*ChipScenario, error) {
	return scenario.LoadFile(path)
}

// NewExperimentFromScenario builds and calibrates the apparatus a chip
// scenario describes. A nil scenario (or the baseline document) is the
// paper's 16-way CMP — identical to NewExperiment.
func NewExperimentFromScenario(sc *ChipScenario, scale float64) (*Experiment, error) {
	return experiment.NewRigFromScenario(sc, scale)
}

// TransientPoint is one interval of a transient thermal trace.
type TransientPoint = experiment.TransientPoint

// TransientConfig controls a transient trace run.
type TransientConfig = experiment.TransientConfig

// DefaultTransientConfig returns the standard transient-trace setup.
func DefaultTransientConfig() TransientConfig {
	return experiment.DefaultTransientConfig()
}

// EfficiencyModel is the extended-Amdahl parallel-efficiency model used to
// bridge measured efficiency curves into the analytical model.
type EfficiencyModel = core.EfficiencyModel

// FitEfficiency least-squares-fits an EfficiencyModel to measured
// (core count, efficiency) points.
func FitEfficiency(ns []int, eps []float64) (EfficiencyModel, error) {
	return core.FitEfficiency(ns, eps)
}

// CrossValidation compares analytical predictions against simulator
// measurements for one application (Experiment.CrossValidate).
type CrossValidation = experiment.CrossValidation

// CrossRow is one core count of a CrossValidation.
type CrossRow = experiment.CrossRow

// MetricSweep holds an energy/EDP/ED²P sweep (Experiment.Metrics).
type MetricSweep = experiment.MetricSweep

// MetricRow is one configuration of a MetricSweep.
type MetricRow = experiment.MetricRow

// ThriftyResult compares spinning vs sleeping at barriers
// (Experiment.ThriftyBarrier).
type ThriftyResult = experiment.ThriftyResult

// OverclockStudy quantifies overclocking under the power budget
// (Experiment.Overclock).
type OverclockStudy = experiment.OverclockStudy

// OverclockRow is one overclocked configuration of an OverclockStudy.
type OverclockRow = experiment.OverclockRow

// FaultConfig parameterizes deterministic fault injection: stuck/noisy
// thermal sensors, DVFS transition failures, transient ECC-style cache
// errors and run-level failures, all driven by one seed.
type FaultConfig = faults.Config

// FaultInjector is a seeded deterministic fault source. Attach one to an
// Experiment's Faults field; a nil injector (or one with every rate at
// zero) reproduces fault-free results bit for bit.
type FaultInjector = faults.Injector

// FaultEvent is one entry of an injector's fault schedule.
type FaultEvent = faults.Event

// NewFaultInjector validates cfg and builds an injector.
func NewFaultInjector(cfg FaultConfig) (*FaultInjector, error) {
	return faults.New(cfg)
}

// ParseFaultSpec parses the compact fault spec shared by the CLI -faults
// flag and the HTTP server's per-request "faults" field (e.g.
// "sensor-noise=2,dvfs-fail=0.1"); an empty spec returns a nil injector.
func ParseFaultSpec(spec string, seed uint64) (*FaultInjector, error) {
	return faults.ParseSpec(spec, seed)
}

// IsTransientFault reports whether err (or anything it wraps) is an
// injected transient failure worth retrying.
func IsTransientFault(err error) bool { return faults.IsTransient(err) }

// RunError is the typed failure of one simulated run, carrying the run's
// provenance (app, core count, operating point, seed, failing step).
type RunError = experiment.RunError

// RetryConfig bounds the sweep runner's retry-with-backoff loop for
// injected-transient failures.
type RetryConfig = experiment.RetryConfig

// DefaultRetryConfig returns the standard 3-attempt exponential backoff.
func DefaultRetryConfig() RetryConfig { return experiment.DefaultRetryConfig() }

// SweepOutcome is one application's result (or typed failure) in a
// fault-isolated sweep (Experiment.SweepScenarioIWith/IIWith).
type SweepOutcome = experiment.SweepOutcome

// SweepConfig configures a parallel sweep: retry policy, worker count
// (the simulations in flight; <= 0 means GOMAXPROCS) and run
// memoization. Sweep output is bit-identical for every worker count.
type SweepConfig = experiment.SweepConfig

// MemoStats reports an Experiment's run-memoization counters.
type MemoStats = experiment.MemoStats

// DTMConfig parameterizes the dynamic thermal-management controller.
type DTMConfig = experiment.DTMConfig

// DefaultDTMConfig returns the standard DTM controller parameters.
func DefaultDTMConfig() DTMConfig { return experiment.DefaultDTMConfig() }

// DTMStats are one run's thermal-management metrics.
type DTMStats = experiment.DTMStats

// DTMSummary aggregates DTMStats over every run of a scenario.
type DTMSummary = experiment.DTMSummary

// MetricsRegistry collects typed run metrics (counters, gauges,
// fixed-bucket histograms). Attach one to an Experiment's Obs field or a
// SimConfig's Metrics field; a nil registry is free (every method on nil
// is a no-op) and concurrent sweeps publishing into one registry produce
// identical snapshots at every worker count.
type MetricsRegistry = obs.Registry

// NewMetricsRegistry returns an empty metrics registry.
func NewMetricsRegistry() *MetricsRegistry { return obs.NewRegistry() }

// MetricSnapshot is one metric of a registry snapshot.
type MetricSnapshot = obs.Metric

// RunManifest is the per-run provenance record (config, seed, fault plan,
// git version, metric snapshot, modeled/wall time) with a canonical
// digest; see internal/obs.
type RunManifest = obs.Manifest

// NewRunManifest builds a manifest for the named command from reg's
// deterministic snapshot (nil registry → no metrics).
func NewRunManifest(command string, reg *MetricsRegistry) *RunManifest {
	return obs.NewManifest(command, reg)
}

// ReadRunManifest loads a manifest written by RunManifest.WriteFile.
func ReadRunManifest(path string) (*RunManifest, error) { return obs.ReadManifest(path) }

// SimConfig configures one raw simulator run.
type SimConfig = cmp.Config

// SimResult is the outcome of one raw simulator run.
type SimResult = cmp.Result

// DefaultSimConfig returns a run configuration for n active cores on the
// Table 1 chip at operating point p.
func DefaultSimConfig(n int, p OperatingPoint) SimConfig {
	return cmp.DefaultConfig(n, p)
}

// Simulate runs a workload program on the simulated CMP. Most users want
// Experiment instead; Simulate is the low-level entry point for custom
// workloads.
func Simulate(prog *Program, cfg SimConfig) (*SimResult, error) {
	return cmp.Run(prog, cfg)
}

// Workload IR: programs are trees of steps shared by all threads. See the
// internal/workload documentation for semantics.
type (
	// Program is a named tree of steps executed by every thread.
	Program = workload.Program
	// Step is one node of a thread program.
	Step = workload.Step
	// Compute is a burst of non-memory work.
	Compute = workload.Compute
	// Kernel interleaves compute with memory accesses over a region.
	Kernel = workload.Kernel
	// Barrier synchronizes all threads.
	Barrier = workload.Barrier
	// Critical wraps its body in a lock.
	Critical = workload.Critical
	// Loop repeats its body.
	Loop = workload.Loop
	// Serial executes its body on thread 0 only.
	Serial = workload.Serial
	// Region is a range of the simulated address space.
	Region = workload.Region
)

// Region scopes.
const (
	// Shared regions are addressed identically by every thread.
	Shared = workload.Shared
	// Partition regions give each thread a 1/N slice.
	Partition = workload.Partition
	// PerThread regions give each thread a private copy.
	PerThread = workload.PerThread
)

// Builder assembles workload programs fluently with automatic barrier and
// lock id management.
type Builder = workload.Builder

// BuildProgram starts a fluent program builder.
func BuildProgram(name string) *Builder { return workload.Build(name) }

// CPIStack is a cycles-per-instruction breakdown with a workload class
// (Experiment.Classify).
type CPIStack = experiment.CPIStack

// WorkloadClass is a coarse workload category.
type WorkloadClass = experiment.WorkloadClass

// Workload classes.
const (
	ComputeBound = experiment.ComputeBound
	MemoryBound  = experiment.MemoryBound
	SyncBound    = experiment.SyncBound
	Mixed        = experiment.Mixed
)

// Profile summarizes one thread's instruction mix and synchronization
// behavior (workload.ProfileThread).
type Profile = workload.Profile

// ProfileThread statically drains one thread of a program and returns its
// profile. Pass limit 0 for the default event bound.
func ProfileThread(p *Program, tid, n int, seed uint64, limit int) (Profile, error) {
	return workload.ProfileThread(p, tid, n, seed, limit)
}

// SeedStats summarizes measurement spread across workload seeds
// (Experiment.SeedStudy).
type SeedStats = experiment.SeedStats

// PlacementStudy compares thermal outcomes of core-placement policies
// (Experiment.Placement).
type PlacementStudy = experiment.PlacementStudy

// ErrUnsupportedChip is matched (errors.Is) by the error an experiment
// returns when it cannot honour the experiment's chip: Placement on a
// scenario chip with DVFS islands or core classes.
var ErrUnsupportedChip = experiment.ErrUnsupportedChip

// PlacementPolicy chooses which physical cores host a run.
type PlacementPolicy = experiment.PlacementPolicy

// Placement policies.
const (
	Contiguous = experiment.Contiguous
	Spread     = experiment.Spread
)

// MixResult is a multiprogrammed throughput measurement (Experiment.Mix).
type MixResult = experiment.MixResult

// MixJob is one job of a MixResult.
type MixJob = experiment.MixJob

// SimulateMulti runs one independent single-threaded program per core —
// a multiprogrammed workload. cfg.NCores is set to len(progs).
func SimulateMulti(progs []*Program, cfg SimConfig) (*SimResult, error) {
	return cmp.RunMulti(progs, cfg)
}
