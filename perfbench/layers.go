package main

import (
	"fmt"
	"sort"
	"time"

	"repro/internal/bitlinker"
	"repro/internal/bitstream"
	"repro/internal/fabric"
	"repro/internal/hwcore"
	"repro/internal/platform"
)

// probeOut holds the directly timed layer calls, per unit of work.
type probeOut struct {
	boot32, boot64 time.Duration // median boot of one system

	assembleN, diffN, compressN int
	assemble, diff, compress    time.Duration // totals

	crcWords, loadWords, decodeWords int64
	crc, load, decode                time.Duration

	hashN int
	hash  time.Duration
}

// bootProbes is how many times each system type is booted on its own.
const bootProbes = 3

// probeLayers times the layers below the platform directly, on the
// workload's own streams: each system type boots on its own; then, for
// every region of every system type in the pool, the BitLinker assembles
// the complete configuration of each module the round ran there and the
// differential of each transition its slots made; the complete and
// differential streams are CRC'd and loaded into scratch configuration
// memory, each differential is compressed against its assumed image and
// decoded back, and the static design is hashed.
func (w workload) probeLayers(rd *round, sp *spanLog) (*probeOut, error) {
	root := sp.begin("layers", -1, 0)
	defer sp.end(root)
	out := &probeOut{}
	regions := max(w.pool.Regions, 1)
	systems := make(map[bool]*platform.System)
	for _, is64 := range []bool{false, true} {
		name, boot := "platform.NewSys32N", platform.NewSys32N
		if is64 {
			name, boot = "platform.NewSys64N", platform.NewSys64N
		}
		var times []time.Duration
		for i := 0; i < bootProbes; i++ {
			id := sp.begin(name, root, 0)
			t0 := time.Now()
			sys, err := boot(regions)
			times = append(times, time.Since(t0))
			sp.end(id)
			if err != nil {
				return nil, err
			}
			systems[is64] = sys
		}
		sort.Slice(times, func(i, j int) bool { return times[i] < times[j] })
		if is64 {
			out.boot64 = times[len(times)/2]
		} else {
			out.boot32 = times[len(times)/2]
		}
	}

	// Group the round's modules and transitions by (system type, region).
	type key struct {
		is64   bool
		region int
	}
	type modKey struct {
		k key
		m string
	}
	type pairKey struct {
		k  key
		pr [2]string
	}
	mods := make(map[key][]string)
	pairs := make(map[key][][2]string)
	seenMod := make(map[modKey]bool)
	seenPair := make(map[pairKey]bool)
	for _, tr := range transitions(rd) {
		k := key{w.memberIs64(tr.member), tr.region}
		for _, m := range []string{tr.from, tr.to} {
			if m != "" && !seenMod[modKey{k, m}] {
				seenMod[modKey{k, m}] = true
				mods[k] = append(mods[k], m)
			}
		}
		pr := [2]string{tr.from, tr.to}
		if tr.from != tr.to && !seenPair[pairKey{k, pr}] {
			seenPair[pairKey{k, pr}] = true
			pairs[k] = append(pairs[k], pr)
		}
	}
	keys := make([]key, 0, len(mods))
	for k := range mods {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool {
		if keys[i].is64 != keys[j].is64 {
			return !keys[i].is64
		}
		return keys[i].region < keys[j].region
	})
	specs := make(map[string]hwcore.Spec)
	for _, s := range hwcore.Specs() {
		specs[s.Name] = s
	}

	for _, k := range keys {
		sys := systems[k.is64]
		area := sys.Floorplan.Areas[k.region]
		baseline := sys.CM.Clone()
		asm, err := bitlinker.New(sys.Dev, area.R, baseline, area.Macro)
		if err != nil {
			return nil, err
		}
		placed := make(map[string]bitlinker.Placed)
		for _, m := range mods[k] {
			comp, err := hwcore.BuildComponent(specs[m], sys.Dev, area.R, area.Macro)
			if err != nil {
				return nil, fmt.Errorf("component %s: %w", m, err)
			}
			placed[m] = bitlinker.Placed{C: comp, ColOff: area.R.W - comp.W}
		}
		assumed := func(from string) *fabric.ConfigMemory {
			if from == "" {
				return baseline
			}
			return asm.Target(placed[from])
		}

		var streams []*bitstream.Stream
		var images []*fabric.ConfigMemory // the state each stream loads onto
		for _, m := range mods[k] {
			id := sp.begin("bitlinker.Assemble", root, 0)
			t0 := time.Now()
			res, err := asm.Assemble(placed[m])
			out.assemble += time.Since(t0)
			sp.end(id)
			if err != nil {
				return nil, fmt.Errorf("assemble %s: %w", m, err)
			}
			out.assembleN++
			streams = append(streams, res.Stream)
			images = append(images, baseline)
		}
		for _, pr := range pairs[k] {
			base := assumed(pr[0])
			id := sp.begin("bitlinker.AssembleDifferential", root, 0)
			t0 := time.Now()
			res, err := asm.AssembleDifferential(base, placed[pr[1]])
			out.diff += time.Since(t0)
			sp.end(id)
			if err != nil {
				return nil, fmt.Errorf("differential %s -> %s: %w", pr[0], pr[1], err)
			}
			out.diffN++
			streams = append(streams, res.Stream)
			images = append(images, base)

			id = sp.begin("bitstream.Compress", root, 0)
			t0 = time.Now()
			z, err := bitstream.Compress(sys.Dev, res.Stream, base, res.Frames)
			out.compress += time.Since(t0)
			sp.end(id)
			if err != nil {
				return nil, fmt.Errorf("compress %s -> %s: %w", pr[0], pr[1], err)
			}
			out.compressN++
			cm := base.Clone()
			id = sp.begin("bitstream.Decode", root, 0)
			t0 = time.Now()
			err = z.Decode(bitstream.NewLoader(cm))
			out.decode += time.Since(t0)
			sp.end(id)
			if err != nil {
				return nil, fmt.Errorf("decode %s -> %s: %w", pr[0], pr[1], err)
			}
			out.decodeWords += int64(z.RawWords)
		}

		for i, s := range streams {
			id := sp.begin("bitstream.FrameCRC", root, 0)
			t0 := time.Now()
			bitstream.FrameCRC(0, s.Words)
			out.crc += time.Since(t0)
			sp.end(id)
			out.crcWords += int64(len(s.Words))

			cm := images[i].Clone()
			l := bitstream.NewLoader(cm)
			id = sp.begin("bitstream.Loader.Load", root, 0)
			t0 = time.Now()
			err := l.Load(s)
			out.load += time.Since(t0)
			sp.end(id)
			if err != nil || !l.Done() {
				return nil, fmt.Errorf("load stream %d on %s region %d: done %v, %v", i, sys.Name, k.region, l.Done(), err)
			}
			out.loadWords += int64(len(s.Words))
		}

		id := sp.begin("fabric.StaticHash", root, 0)
		t0 := time.Now()
		sys.CM.StaticHash(sys.Floorplan.Regions()...)
		out.hash += time.Since(t0)
		sp.end(id)
		out.hashN++
	}
	return out, nil
}

// memberIs64 reports whether pool member i is a 64-bit system: pool.New
// numbers the 32-bit systems first.
func (w workload) memberIs64(i int) bool { return i >= w.pool.Sys32 }
