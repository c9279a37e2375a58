package server

import (
	"bytes"
	"encoding/base64"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"reflect"
	"slices"
	"strconv"
	"strings"
	"testing"

	"repro/internal/match"
)

// protocolSeeds are request lines captured off the e2e and cluster test
// traffic: every command the coordinator sends a worker — fragment and
// the combined update batch with inline assignment — plus the plain
// client commands, so the fuzzer
// starts from the shapes the wire actually carries.
var protocolSeeds = []string{
	`{"id":1,"cmd":"ping"}`,
	`{"id":2,"cmd":"gen","kind":"social","size":200,"seed":42}`,
	`{"id":3,"cmd":"load","format":"text","data":"graph\nn person\nn person\ne 0 1 follow\n"}`,
	`{"id":4,"cmd":"fragment","data":"graph\nn person\nn person\nn product\ne 0 1 follow\ne 1 2 bad_rating\n","owned":[0,1]}`,
	// The same fragment as a coordinator ships it: binary format, base64.
	`{"id":16,"cmd":"fragment","format":"binary","data":"UUdQMQQGcGVyc29uB3Byb2R1Y3QGZm9sbG93CmJhZF9yYXRpbmcDAAABAgABAgECAw==","owned":"AAI="}`,
	`{"id":5,"cmd":"update","owned":[2]}`,
	`{"id":6,"cmd":"update","updates":[{"op":"addEdge","from":0,"to":2,"label":"follow"},{"op":"removeEdge","from":1,"to":2,"label":"bad_rating"}]}`,
	`{"id":7,"cmd":"update","updates":[{"op":"addNode","label":"person"},{"op":"addEdge","from":3,"to":0,"label":"follow"}],"owned":[3]}`,
	`{"id":8,"cmd":"update","updates":[{"op":"removeNode","from":1}]}`,
	`{"id":9,"cmd":"watch","watch":"w","pattern":"qgp\nn xo person *\nn z person\ne xo z follow >=3\n"}`,
	`{"id":10,"cmd":"unwatch","watch":"w"}`,
	`{"id":11,"cmd":"match","pattern":"qgp\nn xo person *\nn z person\ne xo z follow >=1\n","engine":"qmatchn","budget":100000,"limit":10,"planner":true}`,
	`{"id":12,"cmd":"partition","workers":4,"d":2}`,
	`{"id":13,"cmd":"metrics"}`,
	// The same shapes with their id lists packed, as the coordinator
	// sends them: owned [3]; owned [5,2,9] (unsorted).
	`{"id":14,"cmd":"update","updates":[{"op":"addNode","label":"person"}],"owned":"Bg=="}`,
	`{"id":15,"cmd":"update","owned":"CgUO"}`,
	// An update as every sender writes it since batches are packed (the
	// two ops of line 6), and one whose array names an op nobody knows.
	`{"id":17,"cmd":"update","updates":"AgZmb2xsb3cKYmFkX3JhdGluZwIABAADAgQB"}`,
	`{"id":18,"cmd":"update","updates":[{"op":"frob","from":1}]}`,
	// Ids that are no graph.NodeID: narrowed to 32 bits they would name
	// nodes 1, 2 → 3 and -1. They travel; ToUpdates refuses them.
	`{"id":19,"cmd":"update","updates":[{"op":"removeNode","from":4294967297}]}`,
	`{"id":20,"cmd":"update","updates":[{"op":"addEdge","from":4294967298,"to":-4294967293,"label":"follow"}]}`,
	`{"id":21,"cmd":"update","updates":[{"op":"removeEdge","to":9223372036854775807,"label":"follow"}]}`,
}

// codecSeeds are the lines the envelope codec must read and write as
// encoding/json does where its own reading stops: escaped strings (a
// tenant watch is named tenant\u001fwatch), HTML-escaped and invalid UTF-8
// bytes, surrogate pairs and lone halves, numbers in every spelling, and
// what it leaves to encoding/json — repeated and case-variant keys, null,
// trailing bytes, an array-spelled list.
var codecSeeds = []string{
	`{"id":3,"cmd":"watch","watch":"t1\u001fw0","pattern":"qgp\nn xo person *\n"}`,
	`{"id":4,"ok":true,"error":"a\u003cb\u003e \u0026 \u2028\u2029 \/ \b\f\t","session":"\ud83d\ude00 \ud83d x \udc00 \uD83D\uDE00"}`,
	"{\"id\":5,\"cmd\":\"\xff\xfe\xc3(\",\"error\":\"\xed\xa0\x80 \xe2\x80\xa8\"}",
	`{"id":1e2,"cmd":"ping"}`, `{"id":-0,"ok":true,"cmd":"rule","eta":-0,"elapsedMs":-0}`,
	`{"id":6,"ok":true,"cmd":"rule","eta":1e-7,"elapsedMs":1.5e-7,"skew":1e21,"lift":123456789012345678901234567890}`,
	`{"id":7,"ok":true,"cmd":"rule","eta":1E+2,"elapsedMs":2.5e300,"confidence":1e400}`,
	`{"id":1,"id":2,"cmd":"ping","ok":true}`, `{"ID":1,"Cmd":"ping","OK":true}`, `{"id":null,"cmd":null,"ok":null}`,
	`{"id":1,"cmd":"ping","ok":true} x`, `{"id":1,"cmd":"ping","ok":true}{}`, ` { "id" : 2 , "cmd" : "ping" , "ok" : true } `,
	`{"id":8,"cmd":"update","owned":[1,2],"owned":[3]}`, `{"id":8,"ok":true,"matches":[1,2],"matches":"AAQG"}`,
	`{"id":9,"ok":true,"deltas":[{"watch":"a","affected":1}],"deltas":[]}`, `{"id":9,"ok":true,"deltas":[]}`,
	`{"id":9,"ok":true,"deltas":[{"watch":"a","Affected":1,"affected":2}]}`, `{"id":9,"ok":true,"deltas":null}`,
	`{"id":10,"ok":true,"metrics":{"FocusCandidates":1,"Extensions":9223372036854775807,"incRuns":2}}`,
	`{"id":10,"ok":true,"metrics":null,"total":-9223372036854775808,"nodes":9223372036854775808}`,
	`{"id":11,"ok":true,"tenants":[{"name":"a","watches":1,"idleMs":2,"conns":1}],"fragments":[1,2],"triples":["a<b"]}`,
	`{"id":12,"ok":true,"profile":{"a":[1,2,{"b":"]}\""}]},"obs":{ "x" : [ ] }}`,
	`{"id":13,"cmd":3}`, `{"id":13,"cmd":"x","size":1.5}`, `{"id":14,"cmd":"update","owned":"AAQ"}`, `not json`,
	// A coordinator's traced hop, and the worker's reply carrying its trace
	// record; then trace ids encoding/json refuses or reads alone: a sign
	// (-0 included), a fraction, past MaxInt64, past MaxUint64.
	`{"id":15,"cmd":"update","updates":"AQZmb2xsb3cCAgQA","owned":"Bg==","trace":7}`,
	`{"id":15,"ok":true,"total":1,"profile":{"id":7,"op":"update","start":"2026-01-02T03:04:05.000000006Z","dur_ms":0.02,"spans":[{"worker":-1,"name":"graph.apply","offset_ms":0,"dur_ms":0.01,"child":{"id":7,"op":"x","start":"0001-01-01T00:00:00Z","dur_ms":0}}],"counts":{"affected":1,"batch":1},"attachment":{"patterns":null}}}`,
	`{"id":16,"cmd":"match","trace":-0}`, `{"id":16,"cmd":"match","trace":-1}`, `{"id":16,"cmd":"match","trace":1.0}`,
	`{"id":16,"cmd":"match","trace":9223372036854775808}`, `{"id":16,"cmd":"match","trace":18446744073709551616}`,
}

// seedCodec adds protocolSeeds, every value of the wire golden
// (wire_golden_test.go) and codecSeeds to a target, in that order, so
// protocolSeeds keep the seed numbers they had before the others joined.
func seedCodec(f *testing.F) {
	for _, s := range protocolSeeds {
		f.Add([]byte(s))
	}
	data, err := os.ReadFile("testdata/wire-6ecd0ac.golden")
	if err != nil {
		f.Fatal(err)
	}
	for _, line := range strings.Split(strings.TrimSuffix(string(data), "\n"), "\n") {
		_, enc, _ := strings.Cut(line, "\t")
		f.Add([]byte(enc))
	}
	for _, s := range codecSeeds {
		f.Add([]byte(s))
	}
}

// differential holds the envelope codec to encoding/json on one input, both
// ways. The line decodes to the same error text and to a deeply equal
// value, a partly decoded one included. That value, and probe's made from
// the raw bytes (strings that need not be UTF-8, floats that may be NaN, -0
// or need the e form), encode to identical bytes, or fail on both sides;
// and the codec reads the bytes it wrote without leaving them to
// encoding/json.
func differential[T any](t *testing.T, line []byte, decode func([]byte, *T) error, read func([]byte, *T) bool, encode func([]byte, *T) ([]byte, error), probe func([]byte) *T) {
	t.Helper()
	var got, want T
	err, jerr := decode(line, &got), json.Unmarshal(line, &want)
	if fmt.Sprint(err) != fmt.Sprint(jerr) || !reflect.DeepEqual(got, want) {
		t.Fatalf("%q decodes to\n%+v (%v)\nencoding/json:\n%+v (%v)", line, got, err, want, jerr)
	}
	for _, v := range []*T{&want, probe(line)} {
		b, err := encode(nil, v)
		jb, jerr := json.Marshal(v)
		if (err == nil) != (jerr == nil) || !bytes.Equal(b, jb) {
			t.Fatalf("%+v encodes as\n%s (%v)\nencoding/json:\n%s (%v)", v, b, err, jb, jerr)
		}
		var back T
		if err == nil && !read(b, &back) {
			t.Fatalf("the codec leaves its own line to encoding/json: %s", b)
		}
	}
}

// rawFloat reads the first eight bytes of raw, zero-padded, as a float64.
func rawFloat(raw []byte) float64 {
	var b [8]byte
	copy(b[:], raw)
	return math.Float64frombits(binary.LittleEndian.Uint64(b[:]))
}

// knownOps reports whether every op of b is one the packed form has a code
// for. Such a batch travels, whatever ids it names.
func knownOps(b Batch) bool {
	return !slices.ContainsFunc(b, func(u UpdateSpec) bool { return !slices.Contains(batchOps[1:], u.Op) })
}

// checkToUpdates holds ToUpdates to its contract on a batch of known ops:
// it refuses the batch, or every id an op uses is that id as a
// graph.NodeID — nothing is narrowed into another node's id.
func checkToUpdates(t *testing.T, b Batch) {
	t.Helper()
	muts, err := ToUpdates(b)
	if err != nil {
		return
	}
	for i, u := range b {
		from, to := u.Op != "addNode", u.Op == "addEdge" || u.Op == "removeEdge"
		if from && int64(muts[i].From) != u.From || to && int64(muts[i].To) != u.To {
			t.Fatalf("update %d: %+v became %v", i, u, muts[i])
		}
	}
}

// FuzzRequestRoundTrip holds the envelope codec to encoding/json on every
// line (differential), then asserts the wire format is lossless for every
// decodable request line: re-encoding a decoded request must reach a
// fixpoint after one canonicalization step (encode(decode(line)) ==
// encode(decode(encode(decode(line))))). One step is allowed because the
// encoding canonicalizes — omitempty collapses empty collections into
// absent ones, which the protocol semantics never distinguish (handlers
// only ever test len). A field that decodes but does not survive
// re-encoding (a forgotten json tag, an omitempty eating a meaningful
// non-zero value, a new protocol field missing from the struct) breaks
// replica mirroring and journal replay silently — the mirror would apply
// a different request than the primary acked. This found the
// empty-vs-absent collection wart the fixpoint formulation encodes.
func FuzzRequestRoundTrip(f *testing.F) {
	seedCodec(f)
	f.Fuzz(func(t *testing.T, line []byte) {
		differential(t, line, DecodeRequest, readRequest, AppendRequest, func(raw []byte) *Request {
			return &Request{ID: int64(len(raw)), Cmd: string(raw), Data: string(raw), Eta: rawFloat(raw), Updates: fuzzBatch(raw), Trace: math.Float64bits(rawFloat(raw))}
		})
		var req Request
		if err := json.Unmarshal(line, &req); err != nil {
			t.Skip() // not a decodable request line
		}
		if !knownOps(req.Updates) {
			// The array form can spell an op nobody knows. Every handler
			// refuses such a batch and the packed form has no code for
			// it, so it must fail to encode, not travel as something else.
			if _, err := json.Marshal(&req); err == nil {
				t.Fatalf("a request with an unknown op encoded: %s", line)
			}
			t.Skip()
		}
		b, err := json.Marshal(&req)
		if err != nil {
			t.Fatalf("marshal decoded request: %v", err)
		}
		var again Request
		if err := json.Unmarshal(b, &again); err != nil {
			t.Fatalf("re-decode %s: %v", b, err)
		}
		b2, err := json.Marshal(&again)
		if err != nil {
			t.Fatalf("re-marshal: %v", err)
		}
		if string(b) != string(b2) {
			t.Fatalf("canonical encoding is not a fixpoint:\n first: %s\nsecond: %s", b, b2)
		}
		// The mutation vocabulary must agree with itself too: a spec list
		// that converts must convert identically after the round trip.
		ups1, err1 := ToUpdates(req.Updates)
		ups2, err2 := ToUpdates(again.Updates)
		if (err1 == nil) != (err2 == nil) {
			t.Fatalf("ToUpdates verdict diverged: %v vs %v", err1, err2)
		}
		if err1 == nil && !reflect.DeepEqual(ups1, ups2) {
			t.Fatalf("ToUpdates diverged:\n first: %+v\nsecond: %+v", ups1, ups2)
		}
	})
}

// FuzzResponseRoundTrip is the same differential and fixpoint property for
// the server → client direction, seeded with the response shapes the
// handlers emit (fragment ping state, watch deltas, match metrics omitted).
func FuzzResponseRoundTrip(f *testing.F) {
	seeds := []string{
		`{"id":1,"ok":true,"pong":true,"fragment":true,"ownedCount":2,"nodes":3,"edges":2}`,
		`{"id":6,"ok":true,"deltas":[{"watch":"w","added":[1,4],"removed":[2],"affected":7}],"nodes":4,"edges":3}`,
		`{"id":7,"ok":true,"deltas":[{"watch":"w","affected":0}]}`,
		`{"id":9,"ok":false,"error":"watch \"w\" already registered"}`,
		`{"id":11,"ok":true,"matches":[0,2,5],"total":3,"elapsedMs":1.25}`,
		// Packed id lists: matches [0,2,5]; added [1,4], removed [2].
		`{"id":14,"ok":true,"matches":"AAQG","total":3}`,
		`{"id":15,"ok":true,"deltas":[{"watch":"w","added":"AgY=","removed":"BA==","affected":7}]}`,
		`{"id":13,"ok":true,"obs":{"counters":{"server.cmd.match.count":2},"gauges":{},"histograms":{"server.cmd.match.ms":{"count":2,"sum":1.5,"bounds":[1,10],"counts":[1,1,0]}}}}`,
	}
	for _, s := range seeds {
		f.Add([]byte(s))
	}
	seedCodec(f)
	f.Fuzz(func(t *testing.T, line []byte) {
		differential(t, line, DecodeResponse, readResponse, AppendResponse, func(raw []byte) *Response {
			s, x := string(raw), rawFloat(raw)
			return &Response{ID: -int64(len(raw)), Error: s, ElapsedMS: x, Skew: -x, Metrics: &match.Metrics{Extensions: int64(math.Float64bits(x))},
				Deltas: []WatchDelta{{Watch: s, Added: IDList{int64(len(raw))}, Resync: true}}, Triples: []string{s}, Obs: raw}
		})
		var resp Response
		if err := json.Unmarshal(line, &resp); err != nil {
			t.Skip()
		}
		b, err := json.Marshal(&resp)
		if err != nil {
			t.Fatalf("marshal decoded response: %v", err)
		}
		var again Response
		if err := json.Unmarshal(b, &again); err != nil {
			t.Fatalf("re-decode %s: %v", b, err)
		}
		b2, err := json.Marshal(&again)
		if err != nil {
			t.Fatalf("re-marshal: %v", err)
		}
		if string(b) != string(b2) {
			t.Fatalf("canonical encoding is not a fixpoint:\n first: %s\nsecond: %s", b, b2)
		}
	})
}

// FuzzIDList holds the id-list codec to what the protocol header promises.
// The input is read three ways. As a JSON value: decoding never panics,
// and what decodes re-encodes to a form that decodes to the same list. As
// a raw varint block (base64'd and quoted here): never a panic, never a
// list longer than the block. As a list of int64s, eight bytes each:
// json.Marshal writes MarshalText's bytes quoted, packing then decoding is
// the identity, and the plain array spelling of the same list decodes
// equal.
func FuzzIDList(f *testing.F) {
	le := func(vs ...int64) []byte {
		var b []byte
		for _, v := range vs {
			b = binary.LittleEndian.AppendUint64(b, uint64(v))
		}
		return b
	}
	for _, seed := range [][]byte{
		[]byte(`"AAQG"`), []byte(`[0,2,5]`), []byte(`null`), []byte(`""`), []byte(`"gA=="`),
		[]byte(`"AAQ"`), []byte(`"\/\/8="`), []byte(`[1.5]`), []byte(`"`), []byte(`{"a":1}`),
		le(), le(0, 2, 5), le(5, 2, 9, 2), le(-1, -1<<40, 7),
		le(math.MinInt64, math.MaxInt64, math.MinInt64, 0, math.MaxInt64),
		{0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x01, 0x80},
	} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		var direct IDList
		_ = direct.UnmarshalJSON(data) // any bytes: an error at most

		var l IDList
		if err := json.Unmarshal(data, &l); err == nil {
			packed, err := json.Marshal(l)
			if err != nil {
				t.Fatalf("marshal %v: %v", l, err)
			}
			var again IDList
			if err := json.Unmarshal(packed, &again); err != nil || !sameIDs(l, again) {
				t.Fatalf("%s decoded to %v, re-encoded to %s, decoded to %v (%v)", data, l, packed, again, err)
			}
		}

		block := `"` + base64.StdEncoding.EncodeToString(data) + `"`
		var fromBlock IDList
		if err := fromBlock.UnmarshalJSON([]byte(block)); err == nil && len(fromBlock) > len(data) {
			t.Fatalf("a %d-byte block decoded to %d ids", len(data), len(fromBlock))
		}

		list := make(IDList, len(data)/8)
		for i := range list {
			list[i] = int64(binary.LittleEndian.Uint64(data[8*i:]))
		}
		packed, err := json.Marshal(list)
		if err != nil {
			t.Fatalf("marshal %v: %v", list, err)
		}
		if text, err := list.MarshalText(); err != nil || string(packed) != `"`+string(text)+`"` {
			t.Fatalf("%v encoded as %s, want its MarshalText %q quoted (%v)", list, packed, text, err)
		}
		array, err := json.Marshal([]int64(list))
		if err != nil {
			t.Fatal(err)
		}
		var fromPacked, fromArray IDList
		if err := json.Unmarshal(packed, &fromPacked); err != nil || !sameIDs(list, fromPacked) {
			t.Fatalf("%v packed as %s decoded to %v (%v)", list, packed, fromPacked, err)
		}
		if err := json.Unmarshal(array, &fromArray); err != nil || !sameIDs(list, fromArray) {
			t.Fatalf("%v as the array %s decoded to %v (%v)", list, array, fromArray, err)
		}
	})
}

// fuzzBatch decodes any bytes into a batch of known ops, 18 bytes an op:
// the op, from and to as whole int64s (negative and past 2³¹ included),
// and a label out of 255 and the empty one.
func fuzzBatch(data []byte) Batch {
	b := make(Batch, 0, len(data)/18)
	for ; len(data) >= 18; data = data[18:] {
		u := UpdateSpec{
			Op:   batchOps[1+int(data[0])%(len(batchOps)-1)],
			From: int64(binary.LittleEndian.Uint64(data[1:])),
			To:   int64(binary.LittleEndian.Uint64(data[9:])),
		}
		if data[17] != 0 {
			u.Label = "label" + strconv.Itoa(int(data[17]))
		}
		b = append(b, u)
	}
	return b
}

// sameBatch compares two batches op by op; nil and empty are the same
// batch, as on the wire.
func sameBatch(a, b Batch) bool {
	return len(a) == len(b) && (len(a) == 0 || reflect.DeepEqual(a, b))
}

// FuzzBatch holds the batch codec to what the protocol header promises,
// the way FuzzIDList does for id lists. The input is read three ways. As a
// JSON value: decoding never panics, and a batch of known ops re-encodes
// to a form that decodes to the same batch. As a raw block (base64'd and
// quoted here): never a panic, never a batch longer than the block. As a
// batch (fuzzBatch): json.Marshal writes MarshalText's bytes quoted, the
// same batch with one op renamed to an unknown one refuses to encode,
// packing then decoding is the identity, and the array of objects spelling
// the same batch decodes equal. And whatever ids a batch of known ops
// names, ToUpdates narrows none (checkToUpdates).
func FuzzBatch(f *testing.F) {
	op := func(code byte, from, to int64, label byte) []byte {
		b := binary.LittleEndian.AppendUint64([]byte{code}, uint64(from))
		return append(binary.LittleEndian.AppendUint64(b, uint64(to)), label)
	}
	var manyLabels []byte
	for i := 0; i < 300; i++ {
		manyLabels = append(manyLabels, op(1, int64(i), 0, byte(i))...)
	}
	for _, seed := range [][]byte{
		[]byte(`"AQZmb2xsb3cCAgQA"`), []byte(`[{"op":"addEdge","from":1,"to":2,"label":"follow"}]`),
		[]byte(`null`), []byte(`""`), []byte(`"AA=="`), []byte(`[{"op":"frob"}]`), []byte(`"`), []byte(`{"a":1}`),
		[]byte(`"AQZmb2xsb3cCAgQ="`), []byte(`"AQZmb2xsb3cCAgQB"`), []byte(`"AQZmb2xsb3cFAgQA"`),
		[]byte(`"BQZmb2xsb3c="`), []byte(`"AQlmb2xsb3c="`), []byte(`"/////w8="`), []byte(`"AQACAv////////////8BAA=="`),
		[]byte(`"AQAC\/\/\/\/\/\/\/\/\/\/\/\/AQAA"`), []byte(`"AQZmb2xsb3cCAgQA!"`), // TestBatchBlocks says what each is
		append(append(append(op(0, 0, 0, 0), op(1, 1, 2, 7)...), op(2, -1, 1<<40, 7)...), op(3, math.MinInt64, math.MaxInt64, 0)...),
		manyLabels,
		// protocolSeeds' ids that are no graph.NodeID, both ways.
		[]byte(`[{"op":"removeNode","from":4294967297}]`),
		[]byte(`[{"op":"addEdge","from":4294967298,"to":-4294967293,"label":"follow"}]`),
		[]byte(`[{"op":"removeEdge","to":9223372036854775807,"label":"follow"}]`),
		append(append(op(3, 1<<32+1, 0, 0), op(1, 1<<32+2, -(1<<32)+3, 7)...), op(2, 0, math.MaxInt64, 7)...),
	} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		var direct Batch
		_ = direct.UnmarshalJSON(data) // any bytes: an error at most

		var b Batch
		if err := json.Unmarshal(data, &b); err == nil {
			if knownOps(b) {
				checkToUpdates(t, b)
				packed, err := json.Marshal(b)
				if err != nil {
					t.Fatalf("marshal %v: %v", b, err)
				}
				var again Batch
				if err := json.Unmarshal(packed, &again); err != nil || !sameBatch(b, again) {
					t.Fatalf("%s decoded to %v, re-encoded to %s, decoded to %v (%v)", data, b, packed, again, err)
				}
			}
		}

		block := `"` + base64.StdEncoding.EncodeToString(data) + `"`
		var fromBlock Batch
		if err := fromBlock.UnmarshalJSON([]byte(block)); err == nil && cap(fromBlock) > len(data) {
			t.Fatalf("a %d-byte block decoded to a batch with room for %d ops", len(data), cap(fromBlock))
		}

		batch := fuzzBatch(data)
		checkToUpdates(t, batch)
		packed, err := json.Marshal(batch)
		if err != nil {
			t.Fatalf("marshal %v: %v", batch, err)
		}
		if text, err := batch.MarshalText(); err != nil || string(packed) != `"`+string(text)+`"` {
			t.Fatalf("%v encoded as %s, want its MarshalText %q quoted (%v)", batch, packed, text, err)
		}
		// Any one op renamed to one the packed form has no code for, and
		// the batch refuses to encode, alone and inside a request.
		if len(batch) > 0 {
			bad := slices.Clone(batch)
			bad[int(data[0])%len(bad)].Op = "frob"
			if _, err := json.Marshal(&Request{Cmd: "update", Updates: bad}); err == nil || !strings.Contains(err.Error(), `unknown op "frob"`) {
				t.Fatalf("a batch with an unknown op encoded, or was refused for something else: %v", err)
			}
		}
		array, err := json.Marshal([]UpdateSpec(batch))
		if err != nil {
			t.Fatal(err)
		}
		var fromPacked, fromArray Batch
		if err := json.Unmarshal(packed, &fromPacked); err != nil || !sameBatch(batch, fromPacked) {
			t.Fatalf("%v packed as %s decoded to %v (%v)", batch, packed, fromPacked, err)
		}
		if err := json.Unmarshal(array, &fromArray); err != nil || !sameBatch(batch, fromArray) {
			t.Fatalf("%v as the array %s decoded to %v (%v)", batch, array, fromArray, err)
		}
	})
}

// sameIDs compares two id lists element by element; nil and empty are the
// same list, as on the wire.
func sameIDs(a, b IDList) bool {
	return len(a) == len(b) && (len(a) == 0 || reflect.DeepEqual(a, b))
}
