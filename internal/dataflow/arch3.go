package dataflow

import (
	"fmt"
	"sort"

	"repro/internal/cluster"
	"repro/internal/forecast"
	"repro/internal/netsim"
	"repro/internal/sim"
	"repro/internal/vfs"
	"repro/internal/workflow"
)

// RunPartitioned executes "Architecture 3": the simulation at the compute
// node, model outputs rsync'd to k secondary nodes that each generate a
// partition of the data products, and everything mirrored to the public
// server. §2.2 of the paper sets this option aside for the present
// ("little benefit ... due to high data transfer overhead and limited
// node availability") while expecting it to become attractive as product
// loads grow — this implementation lets both regimes be measured.
//
// The partitioner keeps dependency groups together: a product lands in
// the partition of its first dependency so cross-partition gating never
// arises.
func RunPartitioned(p Params, k int) Result {
	p.fillDefaults()
	if err := p.Spec.Validate(); err != nil {
		panic(fmt.Sprintf("dataflow: %v", err))
	}
	if k < 1 {
		k = 1
	}

	eng := sim.NewEngine()
	cl := cluster.New(eng)
	client := cl.AddNode("client", p.ClientCPUs, clientSpeed)
	clientFS := vfs.New(eng.Now)
	serverFS := vfs.New(eng.Now)
	link := netsim.NewLink(eng, "lan", p.Bandwidth)

	secondaries := make([]*cluster.Node, k)
	secondaryFS := make([]*vfs.FS, k)
	for i := 0; i < k; i++ {
		secondaries[i] = cl.AddNode(fmt.Sprintf("worker%02d", i+1), p.ServerCPUs, serverSpeed)
		secondaryFS[i] = vfs.New(eng.Now)
	}

	dir := "/runs/" + p.Spec.Name + "/day1"
	simSpec := p.Spec.Clone()
	simSpec.Products = nil
	run := workflow.Start(eng, workflow.Config{
		Spec:       simSpec,
		Dir:        dir,
		SimNode:    client,
		SimFS:      clientFS,
		Increments: workflow.DefaultIncrements,
	})

	// Partition the catalog, keeping each product with its dependencies.
	parts := partitionProducts(p.Spec.Products, k)
	totals := make(map[string]int64, len(p.Spec.Outputs))
	for _, o := range p.Spec.Outputs {
		totals[o.Name] = run.TotalOutputBytes(o.Name)
	}
	engines := make([]*workflow.ProductEngine, 0, k)
	for i, part := range parts {
		if len(part) == 0 {
			continue
		}
		engines = append(engines, workflow.StartProducts(eng, workflow.ProductConfig{
			Products:    part,
			Dir:         dir,
			Node:        secondaries[i],
			FS:          secondaryFS[i],
			InputTotals: totals,
			Workers:     p.Workers,
			Poll:        workflow.DefaultPoll,
		}))
	}

	// rsync fabric: outputs client → each secondary and client → server;
	// products each secondary → server. All share the one LAN link.
	var lastDelivery float64
	observe := func(t float64, _ string, _ int64) { lastDelivery = t }
	var rsyncs []*netsim.Rsync
	outRoots := []string{run.OutputsDir()}
	for i := range engines {
		rs := netsim.NewRsync(eng, clientFS, secondaryFS[i], link, p.RsyncInterval, outRoots, nil)
		rs.Start()
		rsyncs = append(rsyncs, rs)
	}
	serverOut := netsim.NewRsync(eng, clientFS, serverFS, link, p.RsyncInterval, outRoots, observe)
	serverOut.Start()
	rsyncs = append(rsyncs, serverOut)
	prodRoots := []string{dir + "/products", dir + "/process"}
	for i := range engines {
		rs := netsim.NewRsync(eng, secondaryFS[i], serverFS, link, p.RsyncInterval, prodRoots, observe)
		rs.Start()
		rsyncs = append(rsyncs, rs)
	}

	sched := eng.Scope("dataflow")
	allDone := func() bool {
		if !run.Finished() {
			return false
		}
		for _, e := range engines {
			if !e.Finished() {
				return false
			}
		}
		for _, rs := range rsyncs {
			if !rs.Synced() {
				return false
			}
		}
		return true
	}
	var watchdog func()
	watchdog = func() {
		if allDone() {
			for _, rs := range rsyncs {
				rs.Stop()
			}
			return
		}
		if eng.Now() > watchdogDeadline {
			panic("dataflow: partitioned run did not complete")
		}
		sched.After(sampleInterval, watchdog)
	}
	sched.After(sampleInterval, watchdog)

	eng.Run()

	productsDone := run.SimFinishedAt()
	for _, e := range engines {
		if e.FinishedAt() > productsDone {
			productsDone = e.FinishedAt()
		}
	}
	totalBytes := float64(clientFS.TreeSize(dir))
	for i := range engines {
		totalBytes += float64(secondaryFS[i].TreeSize(dir + "/products"))
		totalBytes += float64(secondaryFS[i].TreeSize(dir + "/process"))
	}
	return Result{
		Architecture:  Architecture(3),
		EndToEnd:      lastDelivery,
		SimWalltime:   run.SimFinishedAt() - run.Started(),
		RunWalltime:   productsDone - run.Started(),
		BytesOverLink: link.BytesMoved(),
		TotalBytes:    totalBytes,
	}
}

// partitionProducts splits a catalog into k parts, keeping whole
// dependency components together (union-find over dependency edges) and
// balancing components across parts by estimated CPU cost, largest first.
func partitionProducts(products []forecast.ProductSpec, k int) [][]forecast.ProductSpec {
	index := make(map[string]int, len(products))
	for i, p := range products {
		index[p.Name] = i
	}
	parent := make([]int, len(products))
	for i := range parent {
		parent[i] = i
	}
	var find func(int) int
	find = func(x int) int {
		if parent[x] != x {
			parent[x] = find(parent[x])
		}
		return parent[x]
	}
	union := func(a, b int) { parent[find(a)] = find(b) }
	for i, p := range products {
		for _, dep := range p.DependsOn {
			if j, ok := index[dep]; ok {
				union(i, j)
			}
		}
	}

	cost := func(p forecast.ProductSpec) float64 {
		cpuPerMB, _ := p.Class.Profile()
		return cpuPerMB * p.Scale
	}
	type component struct {
		members []int
		cost    float64
	}
	byRoot := make(map[int]*component)
	var order []int // roots in first-appearance order, for determinism
	for i, p := range products {
		root := find(i)
		c, ok := byRoot[root]
		if !ok {
			c = &component{}
			byRoot[root] = c
			order = append(order, root)
		}
		c.members = append(c.members, i)
		c.cost += cost(p)
	}
	comps := make([]*component, len(order))
	for i, root := range order {
		comps[i] = byRoot[root]
	}
	sort.SliceStable(comps, func(i, j int) bool { return comps[i].cost > comps[j].cost })

	parts := make([][]forecast.ProductSpec, k)
	load := make([]float64, k)
	for _, c := range comps {
		target := 0
		for i := 1; i < k; i++ {
			if load[i] < load[target] {
				target = i
			}
		}
		for _, m := range c.members {
			parts[target] = append(parts[target], products[m])
		}
		load[target] += c.cost
	}
	return parts
}
