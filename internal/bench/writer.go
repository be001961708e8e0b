package bench

import (
	"encoding/json"
	"fmt"
	"os"

	"repro/internal/bench/gate"
)

// MarshalRecords renders rows in the BENCH_sched.json layout: an indented
// JSON array plus a trailing newline — the committed baseline, the
// archived snapshots and cmd/benchdiff's input.
func MarshalRecords(rows []PlacementRecord) ([]byte, error) {
	data, err := json.MarshalIndent(rows, "", "  ")
	if err != nil {
		return nil, err
	}
	return append(data, '\n'), nil
}

// WriteRecords writes rows to path in the BENCH_sched.json layout.
func WriteRecords(path string, rows []PlacementRecord) error {
	data, err := MarshalRecords(rows)
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}

// DecodeRecords parses a BENCH_sched.json-layout document — the inverse of
// MarshalRecords, shared by cmd/benchdiff and cmd/benchboard. Fields a
// reader no longer knows (the per-row tolerance_pct of older snapshots)
// are ignored.
func DecodeRecords(data []byte) ([]PlacementRecord, error) {
	var rows []PlacementRecord
	if err := json.Unmarshal(data, &rows); err != nil {
		return nil, fmt.Errorf("bench: decode records: %w", err)
	}
	return rows, nil
}

// HistoryEntries renders every row's declared metrics as history lines
// keyed by the given commit SHA: one entry per (suite, label, metric).
func HistoryEntries(rows []PlacementRecord, sha string) []gate.Entry {
	var out []gate.Entry
	for _, r := range rows {
		s := SuiteOf(r.Table)
		for _, m := range s.Metrics {
			out = append(out, gate.Entry{
				SHA:           sha,
				Suite:         s.ID,
				Metric:        r.Label + "/" + m.Name,
				Value:         r.Value(m.Name),
				Unit:          m.Unit,
				Deterministic: s.Deterministic,
			})
		}
	}
	return out
}
