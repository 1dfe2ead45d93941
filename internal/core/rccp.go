package core

import (
	"fmt"
	"sort"
	"strings"
)

// CapacityReport is a rough-cut capacity plan (RCCP): the optimistic
// aggregate comparison of demand against plant capacity that precedes
// detailed scheduling. The factory uses it to "estimate the running time
// of all forecasts for a day and compare it to available computing
// capacity, to ensure the collective resource requirements do not exceed
// the total capacity".
type CapacityReport struct {
	Window        float64 // planning window in seconds (one day by default)
	TotalWork     float64 // demand, reference CPU-seconds
	TotalCapacity float64 // supply, reference CPU-seconds over the window
	Utilization   float64 // demand / supply
	Feasible      bool    // Utilization <= 1
	// Headroom is how many more reference CPU-seconds fit in the window.
	Headroom float64
	PerNode  []NodeCapacity
}

// NodeCapacity is the per-node slice of the rough cut under a given
// assignment (zero loads when no assignment is supplied).
type NodeCapacity struct {
	Node        string
	Capacity    float64
	Load        float64
	Utilization float64
}

// RoughCut computes the aggregate capacity check. window is the planning
// horizon in seconds (<= 0 selects one day). assign may be nil; when
// given, per-node loads are reported against it.
func RoughCut(nodes []NodeInfo, runs []Run, window float64, assign map[string]string) CapacityReport {
	if window <= 0 {
		window = 86400
	}
	rep := CapacityReport{Window: window}
	loads := make(map[string]float64)
	for _, r := range runs {
		rep.TotalWork += r.Work
		if assign != nil {
			loads[assign[r.Name]] += r.Work
		}
	}
	for _, n := range nodes {
		cap := n.Capacity() * window
		rep.TotalCapacity += cap
		nc := NodeCapacity{Node: n.Name, Capacity: cap, Load: loads[n.Name]}
		if cap > 0 {
			nc.Utilization = nc.Load / cap
		}
		rep.PerNode = append(rep.PerNode, nc)
	}
	sort.Slice(rep.PerNode, func(i, j int) bool { return rep.PerNode[i].Node < rep.PerNode[j].Node })
	if rep.TotalCapacity > 0 {
		rep.Utilization = rep.TotalWork / rep.TotalCapacity
	}
	rep.Feasible = rep.TotalWork <= rep.TotalCapacity
	rep.Headroom = rep.TotalCapacity - rep.TotalWork
	return rep
}

// String renders the report as a short table.
func (r CapacityReport) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "rough-cut capacity plan (window %.0fs)\n", r.Window)
	fmt.Fprintf(&b, "  demand %.0f CPU-s, capacity %.0f CPU-s, utilization %.1f%%, feasible=%v\n",
		r.TotalWork, r.TotalCapacity, 100*r.Utilization, r.Feasible)
	for _, n := range r.PerNode {
		fmt.Fprintf(&b, "  %-10s capacity %.0f load %.0f (%.1f%%)\n", n.Node, n.Capacity, n.Load, 100*n.Utilization)
	}
	return b.String()
}
