package main

import (
	"fmt"
	"sort"

	"repro/internal/bus"
	"repro/internal/fault"
	"repro/internal/plan"
	"repro/internal/platform"
	"repro/internal/pool"
	"repro/internal/sim"
)

// replayOut is what replaying a scheduled round through the platform
// calls produced.
type replayOut struct {
	reports     []platform.ExecReport // indexed by request ID - 1
	detected    uint64
	repairBytes uint64
	repairTime  sim.Time
	busTxn      uint64 // bus transactions of the request phase
}

// busTxn sums every member's PLB and OPB transaction counters.
func busTxn(p *pool.Pool) uint64 {
	var n uint64
	for _, m := range p.Members() {
		for _, b := range []*bus.Bus{m.Sys.PLB, m.Sys.OPB} {
			r, w, bursts := b.Stats()
			n += r + w + bursts
		}
	}
	return n
}

// replay re-runs a scheduled round's requests on a fresh pool, on the
// (member, region) placements the scheduler chose, through the platform
// calls the scheduler itself makes: PlanForOn, then LoadModuleOn on a miss
// and ExecuteOn (or BeginExecuteOn and FinishExecuteOn on the DMA path),
// and ScrubOn where the workload scrubs. Each call is a span, so the
// replay splits the host time of a request between the layers, and its
// simulated results must equal the scheduled run's.
func (w workload) replay(rd *round, sp *spanLog) (*replayOut, error) {
	root := sp.begin("replay", -1, 0)
	defer sp.end(root)
	p, _, _, err := w.setupPool(sp, root)
	if err != nil {
		return nil, err
	}
	members := p.Members()
	out := &replayOut{reports: make([]platform.ExecReport, len(rd.results))}
	txn0 := busTxn(p)

	// exec replays one CPU-path request.
	exec := func(i int, parent int) error {
		r := rd.results[i]
		sys := members[r.Member].Sys
		t := rd.reqs[i]
		id := sp.begin("platform.PlanForOn", parent, r.ID)
		pl, err := sys.PlanForOn(r.Region, t.Module())
		sp.end(id)
		if err != nil {
			return err
		}
		var cfg platform.ConfigReport
		if pl.Kind != plan.StreamNone {
			id := sp.begin("platform.LoadModuleOn", parent, r.ID)
			cfg, err = sys.LoadModuleOn(r.Region, t.Module())
			sp.end(id)
			if err != nil {
				return err
			}
		}
		id = sp.begin("platform.ExecuteOn", parent, r.ID)
		rep, err := sys.ExecuteOn(r.Region, t.Module(), func() error { return t.Run(sys) })
		sp.end(id)
		if err != nil {
			return err
		}
		if pl.Kind != plan.StreamNone {
			rep.Kind, rep.CacheHit = cfg.Kind, false
			rep.BytesStreamed += cfg.Bytes
			rep.Config += cfg.Time
		}
		out.reports[i] = rep
		return nil
	}

	switch w.drive {
	case drivePaced:
		cur := rd.scenario.Cursor()
		for i, r := range rd.results {
			id := sp.begin("replay.request", root, r.ID)
			if w.scrub {
				sid := sp.begin("platform.ScrubOn", id, r.ID)
				rep := members[r.Member].Sys.ScrubOn(r.Region)
				sp.end(sid)
				if rep.Detected {
					sp.end(id)
					return nil, fmt.Errorf("replay: dispatch scrub of request %d found a fault", r.ID)
				}
			}
			err := exec(i, id)
			sp.end(id)
			if err != nil {
				return nil, fmt.Errorf("replay: request %d: %w", r.ID, err)
			}
			due := cur.Due(i + 1)
			if len(due) == 0 {
				continue
			}
			if err := out.heal(p, due, sp, root); err != nil {
				return nil, err
			}
		}
	case drivePaired:
		for i := 0; i < len(rd.results); i += 2 {
			if err := out.pair(rd, members, i, min(i+2, len(rd.results)), sp, root); err != nil {
				return nil, err
			}
		}
	case driveOpen:
		// Members are independent timelines: replay each member's requests
		// in the order its own simulated clock ran them.
		byMember := make([][]int, len(members))
		for i, r := range rd.results {
			byMember[r.Member] = append(byMember[r.Member], i)
		}
		for _, idx := range byMember {
			sort.Slice(idx, func(a, b int) bool {
				return rd.results[idx[a]].Report.At < rd.results[idx[b]].Report.At
			})
			for _, i := range idx {
				id := sp.begin("replay.request", root, rd.results[i].ID)
				err := exec(i, id)
				sp.end(id)
				if err != nil {
					return nil, fmt.Errorf("replay: request %d: %w", rd.results[i].ID, err)
				}
			}
		}
	}
	out.busTxn = busTxn(p) - txn0
	return out, nil
}

// heal applies the upsets due after a completion to the replay pool, then
// scrubs every slot in pool order and reloads each faulted slot's module,
// as the scheduler's ScrubAll and background repair do.
func (out *replayOut) heal(p *pool.Pool, due []fault.Event, sp *spanLog, parent int) error {
	id := sp.begin("replay.heal", parent, 0)
	defer sp.end(id)
	for _, e := range due {
		fid := sp.begin("fault.Apply", id, 0)
		err := fault.Apply(p, e)
		sp.end(fid)
		if err != nil {
			return err
		}
	}
	for _, m := range p.Members() {
		for ri := 0; ri < m.Sys.NumRegions(); ri++ {
			sid := sp.begin("platform.ScrubOn", id, 0)
			rep := m.Sys.ScrubOn(ri)
			sp.end(sid)
			if !rep.Detected {
				continue
			}
			out.detected++
			if rep.Module == "" {
				continue
			}
			lid := sp.begin("platform.LoadModuleOn", id, 0)
			cfg, err := m.Sys.LoadModuleOn(ri, rep.Module)
			sp.end(lid)
			if err != nil {
				return fmt.Errorf("replay: repair member %d region %d: %w", m.ID, ri, err)
			}
			out.repairBytes += uint64(cfg.Bytes)
			out.repairTime += cfg.Time
		}
	}
	return nil
}

// pair replays one SubmitBatch round of the DMA path. Requests placed on
// one slot form a batch (the head streams, the riders hit); each member
// begins every batch head's stream before settling any, so sibling
// regions' port windows overlap exactly as in the scheduled run.
func (out *replayOut) pair(rd *round, members []*pool.Member, lo, hi int, sp *spanLog, parent int) error {
	type assignment struct{ idx []int }
	byMember := make(map[int][]*assignment)
	var order []int
	for i := lo; i < hi; i++ {
		r := rd.results[i]
		group, seen := byMember[r.Member]
		if !seen {
			order = append(order, r.Member)
		}
		var a *assignment
		for _, g := range group {
			if rd.results[g.idx[0]].Region == r.Region {
				a = g
			}
		}
		if a == nil {
			a = &assignment{}
			byMember[r.Member] = append(group, a)
		}
		a.idx = append(a.idx, i)
	}
	for _, mid := range order {
		sys := members[mid].Sys
		group := byMember[mid]
		ids := make([]int, len(group))
		tickets := make([]*platform.LoadTicket, len(group))
		for k, a := range group {
			head := rd.results[a.idx[0]]
			ids[k] = sp.begin("replay.request", parent, head.ID)
			id := sp.begin("platform.PlanForOn", ids[k], head.ID)
			_, err := sys.PlanForOn(head.Region, head.Module)
			sp.end(id)
			if err != nil {
				return err
			}
			id = sp.begin("platform.BeginExecuteOn", ids[k], head.ID)
			tickets[k], err = sys.BeginExecuteOn(head.Region, head.Module)
			sp.end(id)
			if err != nil {
				return fmt.Errorf("replay: request %d: %w", head.ID, err)
			}
		}
		for k, a := range group {
			for j, i := range a.idx {
				r := rd.results[i]
				t := rd.reqs[i]
				var rep platform.ExecReport
				var err error
				run := func() error { return t.Run(sys) }
				if j == 0 {
					id := sp.begin("platform.FinishExecuteOn", ids[k], r.ID)
					rep, err = sys.FinishExecuteOn(tickets[k], run)
					sp.end(id)
				} else {
					id := sp.begin("platform.ExecuteOn", ids[k], r.ID)
					rep, err = sys.ExecuteOn(r.Region, t.Module(), run)
					sp.end(id)
				}
				if err != nil {
					return fmt.Errorf("replay: request %d: %w", r.ID, err)
				}
				out.reports[i] = rep
			}
			sp.end(ids[k])
		}
	}
	return nil
}

// check compares the replay's simulated results with the scheduled
// round's, request by request.
func (out *replayOut) check(rd *round) error {
	for i, r := range rd.results {
		got, want := out.reports[i], r.Report
		if got.Kind != want.Kind || got.BytesStreamed != want.BytesStreamed ||
			got.Config != want.Config || got.ConfigHidden != want.ConfigHidden || got.Work != want.Work {
			return fmt.Errorf("replay of request %d (%s on member %d region %d): %v %d B config %v hidden %v work %v; scheduled: %v %d B config %v hidden %v work %v",
				r.ID, r.Module, r.Member, r.Region,
				got.Kind, got.BytesStreamed, got.Config, got.ConfigHidden, got.Work,
				want.Kind, want.BytesStreamed, want.Config, want.ConfigHidden, want.Work)
		}
	}
	st := rd.stats
	if out.detected != st.FaultsDetected || out.repairBytes != st.RepairBytes || out.repairTime != st.RepairConfig {
		return fmt.Errorf("replay repaired %d faults with %d B in %v; scheduled: %d faults, %d B, %v",
			out.detected, out.repairBytes, out.repairTime, st.FaultsDetected, st.RepairBytes, st.RepairConfig)
	}
	return nil
}

// transitions lists the (from → to) module transitions the round's
// configuration streams made on each (member, region) slot, set-up pins
// included, in the order each slot made them.
func transitions(rd *round) []slotTransition {
	type slot struct{ member, region int }
	resident := make(map[slot]string)
	var out []slotTransition
	add := func(s slot, to string) {
		out = append(out, slotTransition{member: s.member, region: s.region, from: resident[s], to: to})
		resident[s] = to
	}
	for _, pl := range rd.pins {
		add(slot{pl.member, pl.region}, pl.module)
	}
	order := make([]int, len(rd.results))
	for i := range order {
		order[i] = i
	}
	// Per slot, the member's own clock orders the loads.
	sort.SliceStable(order, func(a, b int) bool {
		ra, rb := rd.results[order[a]], rd.results[order[b]]
		if ra.Member != rb.Member {
			return ra.Member < rb.Member
		}
		return ra.Report.At < rb.Report.At
	})
	for _, i := range order {
		r := rd.results[i]
		if r.Report.Kind != plan.StreamNone {
			add(slot{r.Member, r.Region}, r.Module)
		}
	}
	return out
}

// slotTransition is one (from → to) reconfiguration of a slot.
type slotTransition struct {
	member, region int
	from, to       string
}
