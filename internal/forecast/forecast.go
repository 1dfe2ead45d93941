// Package forecast models the CORIE forecast factory's workload: forecast
// runs (a numerical simulation followed by incremental generation of
// derived data products), meshes, timestep granularities, code versions,
// and the product catalog of Figure 2 in the paper.
//
// The actual ELCIRC simulation code is proprietary Fortran running on the
// authors' cluster; this package substitutes a calibrated work model (see
// DESIGN.md §2). The management layer — the subject of the paper — only
// observes running times, incremental output growth, and resource
// consumption, all of which the work model supplies:
//
//   - simulation work (reference CPU-seconds) =
//     SimCostPerStepSide × timesteps × mesh sides × code-version factor
//   - model-output bytes = OutputBytesPerStepSide × timesteps × sides,
//     appended in fixed-size increments as the simulation progresses
//   - each data product consumes model-output increments and costs
//     CPU-seconds proportional to the bytes consumed
package forecast

import (
	"fmt"
)

// Calibration constants for the work model. They are chosen so that the
// paper's headline magnitudes land in range: the Tillamook forecast at
// 5760 timesteps on a reference CPU takes ≈40,000 s (Fig 8), and the
// dataflow experiment forecast (Figs 6/7) has an isolated simulation time
// near 10,500 s with products ≈20% of run data volume.
const (
	// SimCostPerStepSide is the simulation cost in reference CPU-seconds
	// per (timestep × mesh side).
	SimCostPerStepSide = 40000.0 / (5760 * 30000)

	// OutputBytesPerStepSide is model-output bytes produced per
	// (timestep × mesh side), spread across the run's output files.
	OutputBytesPerStepSide = 2e9 / (5760 * 30000)

	// SimColocationSlowdown and ProductColocationSlowdown model the
	// memory/CPU interference §4.2 of the paper observes when the
	// simulation and product generation share a node ("both consume
	// considerable amounts of memory and CPU cycles, so running them
	// concurrently may increase the running times of both"): the
	// simulation's work inflates by the first factor and product tasks by
	// the second whenever they are co-located. Architecture 2 avoids both
	// by moving product generation to the server.
	SimColocationSlowdown     = 1.25
	ProductColocationSlowdown = 1.40
)

// Mesh describes the spatial discretization of a forecast region.
type Mesh struct {
	Name  string
	Sides int // number of sides; run time scales near-linearly with this
}

// CodeVersion identifies a simulation code release. CostFactor scales the
// simulation's CPU cost relative to the reference version (1.0); the paper
// observes major version changes shifting run times by hours.
type CodeVersion struct {
	Name       string
	CostFactor float64
}

// Class is a data-product family from Figure 2 of the paper.
type Class int

// Product classes per Figure 2: isolines, transects, cross-sections,
// animations, and plume/estuary plots.
const (
	ClassIsolines Class = iota
	ClassTransects
	ClassCrossSections
	ClassAnimations
	ClassPlume
	ClassEstuaryPlots
	numClasses
)

// String returns the class name.
func (c Class) String() string {
	switch c {
	case ClassIsolines:
		return "isolines"
	case ClassTransects:
		return "transects"
	case ClassCrossSections:
		return "cross-sections"
	case ClassAnimations:
		return "animations"
	case ClassPlume:
		return "plume"
	case ClassEstuaryPlots:
		return "estuary-plots"
	default:
		return fmt.Sprintf("Class(%d)", int(c))
	}
}

// classProfile holds per-class cost/size coefficients.
type classProfile struct {
	// cpuPerMB is product-generation cost in reference CPU-seconds per MB
	// of model output consumed.
	cpuPerMB float64
	// outputRatio is product bytes emitted per byte of model output
	// consumed.
	outputRatio float64
}

// classProfiles is indexed by Class. Animations are the most expensive
// (rendering frames); transects the cheapest (slicing).
var classProfiles = [numClasses]classProfile{
	ClassIsolines:      {cpuPerMB: 2.0, outputRatio: 0.06},
	ClassTransects:     {cpuPerMB: 0.75, outputRatio: 0.04},
	ClassCrossSections: {cpuPerMB: 1.1, outputRatio: 0.05},
	ClassAnimations:    {cpuPerMB: 4.1, outputRatio: 0.16},
	ClassPlume:         {cpuPerMB: 1.65, outputRatio: 0.06},
	ClassEstuaryPlots:  {cpuPerMB: 0.9, outputRatio: 0.04},
}

// Profile returns the cost/size coefficients for a class.
func (c Class) Profile() (cpuPerMB, outputRatio float64) {
	p := classProfiles[c]
	return p.cpuPerMB, p.outputRatio
}

// Variable is a simulated physical variable carried by a model-output file.
type Variable string

// Variables modeled by CORIE forecasts.
const (
	VarSalinity    Variable = "salt"
	VarTemperature Variable = "temp"
	VarVelocity    Variable = "hvel"
	VarElevation   Variable = "elev"
)

// OutputFile describes one model-output file of a run (e.g. "1_salt.63":
// the salinity field for day 1 of the two-day forecast period).
type OutputFile struct {
	Name     string
	Variable Variable
	Day      int     // 1-based day of the forecast period
	Share    float64 // fraction of the run's total output bytes in this file
}

// ProductSpec describes one derived data product.
type ProductSpec struct {
	Name   string
	Class  Class
	Inputs []string // names of the model-output files consumed
	// Scale multiplies the class cost (e.g. finer isolines cost more).
	Scale float64
	// DependsOn names products that must be (incrementally) available
	// before this one runs, e.g. animations over isoline frames.
	DependsOn []string
}

// Spec is a complete forecast specification: everything ForeMan needs to
// know about one daily product run.
type Spec struct {
	Name      string
	Region    string
	Timesteps int // e.g. 5760 = two days at 30 s
	Mesh      Mesh
	Code      CodeVersion
	Outputs   []OutputFile
	Products  []ProductSpec

	// StartOffset is the earliest start time in seconds after midnight,
	// constrained by real-time observation inputs (river flows,
	// atmospheric forcings).
	StartOffset float64
	// Deadline is the desired completion time in seconds after midnight;
	// forecasts are perishable and lose value after it.
	Deadline float64
	// Priority orders forecasts when capacity is short; higher is more
	// important. ForeMan may delay or drop low-priority forecasts.
	Priority int
}

// Validate checks internal consistency of the spec.
func (s *Spec) Validate() error {
	if s.Name == "" {
		return fmt.Errorf("forecast: spec has empty name")
	}
	if s.Timesteps <= 0 {
		return fmt.Errorf("forecast %s: timesteps must be positive, got %d", s.Name, s.Timesteps)
	}
	if s.Mesh.Sides <= 0 {
		return fmt.Errorf("forecast %s: mesh %q must have positive sides, got %d", s.Name, s.Mesh.Name, s.Mesh.Sides)
	}
	if s.Code.CostFactor <= 0 {
		return fmt.Errorf("forecast %s: code %q must have positive cost factor, got %v", s.Name, s.Code.Name, s.Code.CostFactor)
	}
	if len(s.Outputs) == 0 {
		return fmt.Errorf("forecast %s: no output files", s.Name)
	}
	var share float64
	names := make(map[string]bool, len(s.Outputs))
	for _, o := range s.Outputs {
		if names[o.Name] {
			return fmt.Errorf("forecast %s: duplicate output file %q", s.Name, o.Name)
		}
		names[o.Name] = true
		if o.Share <= 0 {
			return fmt.Errorf("forecast %s: output %q has non-positive share", s.Name, o.Name)
		}
		share += o.Share
	}
	if share < 0.999 || share > 1.001 {
		return fmt.Errorf("forecast %s: output shares sum to %v, want 1", s.Name, share)
	}
	prodNames := make(map[string]bool, len(s.Products))
	for _, p := range s.Products {
		if prodNames[p.Name] {
			return fmt.Errorf("forecast %s: duplicate product %q", s.Name, p.Name)
		}
		prodNames[p.Name] = true
	}
	for _, p := range s.Products {
		if len(p.Inputs) == 0 && len(p.DependsOn) == 0 {
			return fmt.Errorf("forecast %s: product %q has no inputs", s.Name, p.Name)
		}
		for _, in := range p.Inputs {
			if !names[in] {
				return fmt.Errorf("forecast %s: product %q reads unknown output %q", s.Name, p.Name, in)
			}
		}
		for _, dep := range p.DependsOn {
			if !prodNames[dep] {
				return fmt.Errorf("forecast %s: product %q depends on unknown product %q", s.Name, p.Name, dep)
			}
		}
		if p.Scale <= 0 {
			return fmt.Errorf("forecast %s: product %q has non-positive scale", s.Name, p.Name)
		}
	}
	return nil
}

// SimWork returns the total simulation cost in reference CPU-seconds.
func (s *Spec) SimWork() float64 {
	return SimCostPerStepSide * float64(s.Timesteps) * float64(s.Mesh.Sides) * s.Code.CostFactor
}

// OutputBytes returns the total model-output bytes the run produces.
func (s *Spec) OutputBytes() float64 {
	return OutputBytesPerStepSide * float64(s.Timesteps) * float64(s.Mesh.Sides)
}

// ProductWork returns the total product-generation cost in reference
// CPU-seconds, summed over all products.
func (s *Spec) ProductWork() float64 {
	total := 0.0
	outBytes := s.OutputBytes()
	shares := s.outputShares()
	for _, p := range s.Products {
		cpuPerMB, _ := p.Class.Profile()
		var inputBytes float64
		for _, in := range p.Inputs {
			inputBytes += outBytes * shares[in]
		}
		total += cpuPerMB * p.Scale * inputBytes / 1e6
	}
	return total
}

// ProductBytes returns the total bytes of derived data products.
func (s *Spec) ProductBytes() float64 {
	total := 0.0
	outBytes := s.OutputBytes()
	shares := s.outputShares()
	for _, p := range s.Products {
		_, ratio := p.Class.Profile()
		var inputBytes float64
		for _, in := range p.Inputs {
			inputBytes += outBytes * shares[in]
		}
		total += ratio * p.Scale * inputBytes
	}
	return total
}

// TotalWork returns simulation plus product work in reference CPU-seconds.
func (s *Spec) TotalWork() float64 { return s.SimWork() + s.ProductWork() }

func (s *Spec) outputShares() map[string]float64 {
	m := make(map[string]float64, len(s.Outputs))
	for _, o := range s.Outputs {
		m[o.Name] = o.Share
	}
	return m
}

// Output returns the named output file spec and whether it exists.
func (s *Spec) Output(name string) (OutputFile, bool) {
	for _, o := range s.Outputs {
		if o.Name == name {
			return o, true
		}
	}
	return OutputFile{}, false
}

// Clone returns a deep copy of the spec, so campaign events can mutate one
// day's configuration without aliasing history.
func (s *Spec) Clone() *Spec {
	c := *s
	c.Outputs = append([]OutputFile(nil), s.Outputs...)
	c.Products = make([]ProductSpec, len(s.Products))
	for i, p := range s.Products {
		c.Products[i] = p
		c.Products[i].Inputs = append([]string(nil), p.Inputs...)
		c.Products[i].DependsOn = append([]string(nil), p.DependsOn...)
	}
	return &c
}
