package server_test

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"reflect"
	"strconv"
	"testing"

	"repro/internal/server"
)

// filled returns a value of v's type with every field set, each number and
// string distinct, so a field the codec forgets, misnames or swaps with
// another shows as a byte difference.
func filled[T any]() *T {
	n := 0
	var fill func(v reflect.Value)
	fill = func(v reflect.Value) {
		n++
		switch v.Kind() {
		case reflect.String:
			v.SetString("s" + strconv.Itoa(n) + "<&>\u2028\x01\xff")
		case reflect.Int, reflect.Int64:
			v.SetInt(int64(n))
		case reflect.Uint64:
			v.SetUint(uint64(n))
		case reflect.Float64:
			v.SetFloat(float64(n) / 1e7)
		case reflect.Bool:
			v.SetBool(true)
		case reflect.Pointer:
			v.Set(reflect.New(v.Type().Elem()))
			fill(v.Elem())
		case reflect.Struct:
			for i := 0; i < v.NumField(); i++ {
				fill(v.Field(i))
			}
		case reflect.Slice:
			if v.Type() == reflect.TypeOf(json.RawMessage(nil)) {
				v.SetBytes([]byte(`{ "n": [` + strconv.Itoa(n) + `, "<"] }`))
				return
			}
			v.Set(reflect.MakeSlice(v.Type(), 2, 2))
			fill(v.Index(0))
			fill(v.Index(1))
		}
	}
	var v T
	fill(reflect.ValueOf(&v).Elem())
	return &v
}

// checkCodec holds the codec to encoding/json on v: the same bytes, and
// those bytes decode to the value json.Unmarshal decodes.
func checkCodec[T any](t *testing.T, name string, v *T, encode func([]byte, *T) ([]byte, error), decode func([]byte, *T) error) {
	t.Helper()
	want, err := json.Marshal(v)
	if err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	got, err := encode([]byte("prefix"), v)
	if err != nil || !bytes.Equal(got, append([]byte("prefix"), want...)) {
		t.Fatalf("%s: the codec writes\n%s (%v)\nencoding/json\n%s", name, got, err, want)
	}
	var back, jsonBack T
	if err := json.Unmarshal(want, &jsonBack); err != nil {
		t.Fatal(err)
	}
	if err := decode(want, &back); err != nil || !reflect.DeepEqual(back, jsonBack) {
		t.Fatalf("%s: %s decodes to\n%+v (%v)\nencoding/json\n%+v", name, want, back, err, jsonBack)
	}
}

// TestCodecIsEncodingJSON: the envelope codec writes and reads every field
// of Request and Response as encoding/json does, including the wire golden's
// cases, so no byte on the wire moved when it replaced encoding/json.
func TestCodecIsEncodingJSON(t *testing.T) {
	req := filled[server.Request]()
	req.Updates = server.Batch{{Op: "addEdge", From: 1, To: 2, Label: req.Cmd}, {Op: "removeNode", From: 3}}
	checkCodec(t, "every request field", req, server.AppendRequest, server.DecodeRequest)
	checkCodec(t, "every response field", filled[server.Response](), server.AppendResponse, server.DecodeResponse)
	// A trace id past MaxInt64 is read by encoding/json alone.
	for _, id := range []uint64{1, math.MaxInt64, math.MaxInt64 + 1, math.MaxUint64} {
		checkCodec(t, fmt.Sprintf("trace %d", id), &server.Request{ID: 5, Cmd: "match", Pattern: "qgp", Trace: id}, server.AppendRequest, server.DecodeRequest)
	}

	golden := readWireGolden(t)
	for _, c := range wireCases() {
		switch v := c.v.(type) {
		case *server.Request:
			checkCodec(t, c.name, v, server.AppendRequest, server.DecodeRequest)
		case *server.Response:
			checkCodec(t, c.name, v, server.AppendResponse, server.DecodeResponse)
		default:
			continue
		}
		if enc, _ := json.Marshal(c.v); string(enc) != golden[c.name] {
			t.Errorf("%s: not the golden bytes", c.name)
		}
	}
}

// BenchmarkEnvelope times one update-watch round trip's envelopes, a
// request with a packed 8-op batch and a worker reply with 8 deltas, through
// the codec and through encoding/json.
func BenchmarkEnvelope(b *testing.B) {
	cases := wireCases()
	req, reply := cases[0].v.(*server.Request), cases[2].v.(*server.Response)
	b.Run("codec", func(b *testing.B) {
		var buf []byte
		var r server.Request
		var resp server.Response
		for i := 0; i < b.N; i++ {
			buf, _ = server.AppendRequest(buf[:0], req)
			_ = server.DecodeRequest(buf, &r)
			buf, _ = server.AppendResponse(buf[:0], reply)
			_ = server.DecodeResponse(buf, &resp)
		}
	})
	b.Run("encoding-json", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			line, _ := json.Marshal(req)
			var r server.Request
			_ = json.Unmarshal(line, &r)
			line, _ = json.Marshal(reply)
			var resp server.Response
			_ = json.Unmarshal(line, &resp)
		}
	})
}
