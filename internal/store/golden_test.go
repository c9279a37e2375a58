package store

import (
	"bytes"
	"encoding/hex"
	"math"
	"reflect"
	"testing"

	"repro/internal/graph"
)

// goldenRecords is encodeRecord's output for goldenBatch at sequence
// numbers 7…11, captured at ff36622 — when the store still had a mutation
// type of its own. The bytes are the disk format: a journal written by any
// earlier build must replay, so they may not change with the type under
// them.
const goldenRecords = "0c00000072195b7f070101010770657273c3b66e" +
	"18000000284ce75d08020180808080f8ffffffff010a66c3b66c6c6f77e28692" +
	"18000000347b6351090380808080f8ffffffff01010a66c3b66c6c6f77e28692" +
	"0e000000fc39c5530a0480808080f8ffffffff010100" +
	"05000000aaf6e7050b04010100"

// All four ops, labels with multi-byte runes, ids 0 and 2³¹−1.
var goldenBatch = []graph.Mutation{
	graph.AddNode("persön"),
	graph.AddEdge(0, math.MaxInt32, "föllow→"),
	graph.RemoveEdge(math.MaxInt32, 0, "föllow→"),
	graph.RemoveNode(math.MaxInt32),
	graph.RemoveNode(0),
}

func TestJournalRecordGolden(t *testing.T) {
	want, err := hex.DecodeString(goldenRecords)
	if err != nil {
		t.Fatal(err)
	}
	var got []byte
	for i, m := range goldenBatch {
		got = encodeRecord(got, uint64(7+i), m)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("journal records changed on disk:\n got %x\nwant %x", got, want)
	}

	// And back, through the reader recovery uses.
	var back []graph.Mutation
	info, err := replayJournal(bytes.NewReader(append(bytes.Clone(journalMagic), want...)), 6, func(seq uint64, m graph.Mutation) error {
		if seq != uint64(7+len(back)) {
			t.Fatalf("record %d decoded with seq %d", len(back), seq)
		}
		back = append(back, m)
		return nil
	})
	if err != nil || info.TornTail || info.Applied != len(goldenBatch) {
		t.Fatalf("replay of the golden records: info %+v, err %v", info, err)
	}
	if !reflect.DeepEqual(back, goldenBatch) {
		t.Fatalf("golden records decoded to %v, want %v", back, goldenBatch)
	}
}
