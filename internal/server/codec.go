package server

import (
	"encoding/base64"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"math"
	"slices"
	"strconv"
	"strings"
	"unicode"
	"unicode/utf16"
	"unicode/utf8"

	"repro/internal/match"
)

// The envelope's one codec, byte-identical to encoding/json (protocol
// header): writers for Request and Response, and one-pass readers that
// leave any line they cannot read as json.Unmarshal would to json.Unmarshal.

// wireWriter appends one envelope, keeping the first error.
type wireWriter struct {
	b   []byte
	err error
}

func (w *wireWriter) fail(err error) {
	if w.err == nil {
		w.err = err
	}
}

// The field writers skip a zero value (omitempty); key is the field's
// separator, name and colon, e.g. `,"kind":`.
func (w *wireWriter) str(key, s string) {
	if s != "" {
		w.b = appendString(append(w.b, key...), s)
	}
}

func (w *wireWriter) int(key string, v int64) {
	if v != 0 {
		w.b = strconv.AppendInt(append(w.b, key...), v, 10)
	}
}

func (w *wireWriter) bool(key string, v bool) {
	if v {
		w.b = append(append(w.b, key...), "true"...)
	}
}

func (w *wireWriter) float(key string, f float64) {
	if f == 0 {
		return
	}
	if math.IsInf(f, 0) || math.IsNaN(f) {
		w.fail(fmt.Errorf("json: unsupported value: %s", strconv.FormatFloat(f, 'g', -1, 64)))
		return
	}
	// As encoding/json (ES6 number to string): %e outside [1e-6, 1e21),
	// and e-09 shortened to e-9.
	format := byte('f')
	if abs := math.Abs(f); abs < 1e-6 || abs >= 1e21 {
		format = 'e'
	}
	w.b = strconv.AppendFloat(append(w.b, key...), f, format, -1, 64)
	if n := len(w.b); format == 'e' && w.b[n-4] == 'e' && w.b[n-3] == '-' && w.b[n-2] == '0' {
		w.b[n-2] = w.b[n-1]
		w.b = w.b[:n-1]
	}
}

func (w *wireWriter) ids(key string, l IDList) {
	if len(l) > 0 {
		w.b = append(appendIDs(append(append(w.b, key...), '"'), l), '"')
	}
}

// nested writes v through json.Marshal; the caller skips an empty one.
func (w *wireWriter) nested(key string, v any) {
	b, err := json.Marshal(v)
	if err != nil {
		w.fail(err)
		return
	}
	w.b = append(append(w.b, key...), b...)
}

func (w *wireWriter) done(dst []byte) ([]byte, error) {
	if w.err != nil {
		return dst, w.err
	}
	return append(w.b, '}'), nil
}

// AppendRequest appends r to dst as json.Marshal writes it.
func AppendRequest(dst []byte, r *Request) ([]byte, error) {
	w := wireWriter{b: strconv.AppendInt(append(dst, `{"id":`...), r.ID, 10)}
	w.b = appendString(append(w.b, `,"cmd":`...), r.Cmd)
	w.str(`,"kind":`, r.Kind)
	w.int(`,"size":`, int64(r.Size))
	w.int(`,"seed":`, r.Seed)
	w.str(`,"format":`, r.Format)
	w.str(`,"data":`, r.Data)
	w.str(`,"pattern":`, r.Pattern)
	w.str(`,"engine":`, r.Engine)
	w.int(`,"budget":`, r.Budget)
	w.int(`,"limit":`, int64(r.Limit))
	w.int(`,"workers":`, int64(r.Workers))
	w.int(`,"d":`, int64(r.D))
	w.str(`,"consequent":`, r.Consequent)
	w.float(`,"eta":`, r.Eta)
	w.str(`,"constraint":`, r.Constraint)
	w.int(`,"topK":`, int64(r.TopK))
	if len(r.Updates) > 0 {
		var err error
		if w.b, err = appendBatch(append(w.b, `,"updates":"`...), r.Updates); err != nil {
			w.fail(fmt.Errorf("json: error calling MarshalText for type server.Batch: %w", err))
		}
		w.b = append(w.b, '"')
	}
	w.str(`,"watch":`, r.Watch)
	w.str(`,"session":`, r.Session)
	w.ids(`,"owned":`, r.Owned)
	if r.Trace != 0 {
		w.b = strconv.AppendUint(append(w.b, `,"trace":`...), r.Trace, 10)
	}
	return w.done(dst)
}

// AppendResponse appends r to dst as json.Marshal writes it.
func AppendResponse(dst []byte, r *Response) ([]byte, error) {
	w := wireWriter{b: strconv.AppendInt(append(dst, `{"id":`...), r.ID, 10)}
	w.b = strconv.AppendBool(append(w.b, `,"ok":`...), r.OK)
	w.str(`,"error":`, r.Error)
	w.float(`,"retryAfterMs":`, r.RetryAfterMS)
	w.bool(`,"pong":`, r.Pong)
	w.bool(`,"fragment":`, r.Fragment)
	w.int(`,"ownedCount":`, int64(r.Owned))
	w.int(`,"nodes":`, int64(r.Nodes))
	w.int(`,"edges":`, int64(r.Edges))
	w.ids(`,"matches":`, r.Matches)
	w.int(`,"total":`, int64(r.Total))
	if m := r.Metrics; m != nil {
		// match.Metrics has no tags: its keys are its field names.
		w.b = strconv.AppendInt(append(w.b, `,"metrics":{"FocusCandidates":`...), int64(m.FocusCandidates), 10)
		w.b = strconv.AppendInt(append(w.b, `,"Verifications":`...), int64(m.Verifications), 10)
		w.b = strconv.AppendInt(append(w.b, `,"Extensions":`...), m.Extensions, 10)
		w.b = strconv.AppendInt(append(w.b, `,"EarlyAccepts":`...), int64(m.EarlyAccepts), 10)
		w.b = strconv.AppendInt(append(w.b, `,"AcceptSearches":`...), int64(m.AcceptSearches), 10)
		w.b = strconv.AppendInt(append(w.b, `,"IncRuns":`...), int64(m.IncRuns), 10)
		w.b = strconv.AppendInt(append(w.b, `,"IncCandidates":`...), int64(m.IncCandidates), 10)
		w.b = append(w.b, '}')
	}
	w.float(`,"elapsedMs":`, r.ElapsedMS)
	w.int(`,"support":`, int64(r.Support))
	w.float(`,"confidence":`, r.Confidence)
	w.float(`,"lift":`, r.Lift)
	w.ids(`,"identified":`, r.Identified)
	w.float(`,"skew":`, r.Skew)
	if len(r.Fragments) > 0 {
		w.nested(`,"fragments":`, r.Fragments)
	}
	w.int(`,"labels":`, int64(r.Labels))
	if len(r.Triples) > 0 {
		w.nested(`,"triples":`, r.Triples)
	}
	if len(r.TripleRows) > 0 {
		w.nested(`,"tripleRows":`, r.TripleRows)
	}
	if len(r.LabelNames) > 0 {
		w.nested(`,"labelNames":`, r.LabelNames)
	}
	if len(r.Deltas) > 0 {
		w.b = append(w.b, `,"deltas":[`...)
		for i := range r.Deltas {
			d := &r.Deltas[i]
			if i > 0 {
				w.b = append(w.b, ',')
			}
			w.b = appendString(append(w.b, `{"watch":`...), d.Watch)
			w.ids(`,"added":`, d.Added)
			w.ids(`,"removed":`, d.Removed)
			w.b = strconv.AppendInt(append(w.b, `,"affected":`...), int64(d.Affected), 10)
			w.bool(`,"resync":`, d.Resync)
			w.b = append(w.b, '}')
		}
		w.b = append(w.b, ']')
	}
	w.str(`,"session":`, r.Session)
	if len(r.Tenants) > 0 {
		w.nested(`,"tenants":`, r.Tenants)
	}
	if len(r.Obs) > 0 {
		w.nested(`,"obs":`, r.Obs)
	}
	if len(r.Profile) > 0 {
		w.nested(`,"profile":`, r.Profile)
	}
	return w.done(dst)
}

// htmlSafe[c] reports whether the ASCII byte c stands for itself inside a
// string: not a control character, a quote, a backslash, or one of <>&,
// which encoding/json escapes for HTML.
var htmlSafe = func() (safe [utf8.RuneSelf]bool) {
	for c := ' '; c < utf8.RuneSelf; c++ {
		safe[c] = c != '"' && c != '\\' && c != '<' && c != '>' && c != '&'
	}
	return safe
}()

// appendString appends s quoted as encoding/json quotes it: \" \\ \b \f
// \n \r \t, \u00XX for the other control characters and <>&, \u2028 and
// \u2029 for the line and paragraph separators, and \ufffd for each byte
// that is not valid UTF-8.
func appendString(dst []byte, s string) []byte {
	const hex = "0123456789abcdef"
	dst = append(dst, '"')
	start := 0
	for i := 0; i < len(s); {
		if c := s[i]; c < utf8.RuneSelf {
			if htmlSafe[c] {
				i++
				continue
			}
			dst = append(dst, s[start:i]...)
			switch c {
			case '\\', '"':
				dst = append(dst, '\\', c)
			case '\b':
				dst = append(dst, '\\', 'b')
			case '\f':
				dst = append(dst, '\\', 'f')
			case '\n':
				dst = append(dst, '\\', 'n')
			case '\r':
				dst = append(dst, '\\', 'r')
			case '\t':
				dst = append(dst, '\\', 't')
			default:
				dst = append(dst, '\\', 'u', '0', '0', hex[c>>4], hex[c&0xF])
			}
			i++
			start = i
			continue
		}
		r, size := utf8.DecodeRuneInString(s[i:])
		switch {
		case r == utf8.RuneError && size == 1:
			dst = append(append(dst, s[start:i]...), `\ufffd`...)
		case r == '\u2028' || r == '\u2029':
			dst = append(append(dst, s[start:i]...), '\\', 'u', '2', '0', '2', hex[r&0xF])
		default:
			i += size
			continue
		}
		i += size
		start = i
	}
	return append(append(dst, s[start:]...), '"')
}

// appendPacked replaces dst[from:], a raw block, by its base64.
func appendPacked(dst []byte, from int) []byte {
	n := len(dst) - from
	dst = base64.StdEncoding.AppendEncode(dst, dst[from:])
	return append(dst[:from], dst[from+n:]...)
}

// appendIDs appends the packed form of l (protocol header) unquoted.
// Differences wrap around in int64, so any list round-trips, sorted or not.
func appendIDs(dst []byte, l IDList) []byte {
	from := len(dst)
	var prev int64
	for _, v := range l {
		dst = binary.AppendVarint(dst, v-prev)
		prev = v
	}
	return appendPacked(dst, from)
}

// appendBatch appends the packed form of b (protocol header) unquoted.
// Every field of every op travels, used by the op or not, so any batch of
// known ops round-trips.
func appendBatch(dst []byte, b Batch) ([]byte, error) {
	index := make(map[string]int)
	labels := make([]string, 0, 8)
	for i, u := range b {
		if !slices.Contains(batchOps[1:], u.Op) {
			return dst, fmt.Errorf("update %d: unknown op %q", i, u.Op)
		}
		if _, ok := index[u.Label]; !ok {
			index[u.Label] = len(labels)
			labels = append(labels, u.Label)
		}
	}
	from := len(dst)
	dst = binary.AppendUvarint(dst, uint64(len(labels)))
	for _, l := range labels {
		dst = append(binary.AppendUvarint(dst, uint64(len(l))), l...)
	}
	for _, u := range b {
		dst = append(dst, byte(slices.Index(batchOps[1:], u.Op)+1))
		dst = binary.AppendVarint(dst, u.From)
		dst = binary.AppendVarint(dst, u.To)
		dst = binary.AppendUvarint(dst, uint64(index[u.Label]))
	}
	return appendPacked(dst, from), nil
}

// DecodeRequest sets *r to what json.Unmarshal decodes line into, starting
// from a zero Request, and returns its error.
func DecodeRequest(line []byte, r *Request) error {
	*r = Request{}
	if readRequest(line, r) {
		return nil
	}
	*r = Request{}
	return json.Unmarshal(line, r)
}

// DecodeResponse sets *r to what json.Unmarshal decodes line into,
// starting from a zero Response, and returns its error.
func DecodeResponse(line []byte, r *Response) error {
	*r = Response{}
	if readResponse(line, r) {
		return nil
	}
	*r = Response{}
	return json.Unmarshal(line, r)
}

func readRequest(line []byte, r *Request) bool {
	d := wireReader{data: line}
	var seen fieldSet
	return d.object(func(key []byte) bool {
		switch string(key) {
		case "id":
			return seen.once(0) && d.i64(&r.ID)
		case "cmd":
			return seen.once(1) && d.cmd(&r.Cmd)
		case "kind":
			return seen.once(2) && d.str(&r.Kind)
		case "size":
			return seen.once(3) && d.int(&r.Size)
		case "seed":
			return seen.once(4) && d.i64(&r.Seed)
		case "format":
			return seen.once(5) && d.str(&r.Format)
		case "data":
			return seen.once(6) && d.str(&r.Data)
		case "pattern":
			return seen.once(7) && d.str(&r.Pattern)
		case "engine":
			return seen.once(8) && d.str(&r.Engine)
		case "budget":
			return seen.once(9) && d.i64(&r.Budget)
		case "limit":
			return seen.once(10) && d.int(&r.Limit)
		case "workers":
			return seen.once(11) && d.int(&r.Workers)
		case "d":
			return seen.once(13) && d.int(&r.D)
		case "consequent":
			return seen.once(14) && d.str(&r.Consequent)
		case "eta":
			return seen.once(15) && d.float(&r.Eta)
		case "constraint":
			return seen.once(16) && d.str(&r.Constraint)
		case "topK":
			return seen.once(17) && d.int(&r.TopK)
		case "updates":
			return seen.once(18) && packed(&d, &r.Updates, packedBatch)
		case "watch":
			return seen.once(19) && d.str(&r.Watch)
		case "session":
			return seen.once(20) && d.str(&r.Session)
		case "owned":
			return seen.once(21) && packed(&d, &r.Owned, packedIDs)
		case "trace":
			return seen.once(22) && d.u64(&r.Trace)
		}
		return false
	}) && d.end()
}

func readResponse(line []byte, r *Response) bool {
	d := wireReader{data: line}
	var seen fieldSet
	return d.object(func(key []byte) bool {
		switch string(key) {
		case "id":
			return seen.once(0) && d.i64(&r.ID)
		case "ok":
			return seen.once(1) && d.bool(&r.OK)
		case "error":
			return seen.once(2) && d.str(&r.Error)
		case "retryAfterMs":
			return seen.once(3) && d.float(&r.RetryAfterMS)
		case "pong":
			return seen.once(4) && d.bool(&r.Pong)
		case "fragment":
			return seen.once(5) && d.bool(&r.Fragment)
		case "ownedCount":
			return seen.once(6) && d.int(&r.Owned)
		case "nodes":
			return seen.once(7) && d.int(&r.Nodes)
		case "edges":
			return seen.once(8) && d.int(&r.Edges)
		case "matches":
			return seen.once(9) && packed(&d, &r.Matches, packedIDs)
		case "total":
			return seen.once(10) && d.int(&r.Total)
		case "metrics":
			return seen.once(11) && d.metrics(&r.Metrics)
		case "elapsedMs":
			return seen.once(12) && d.float(&r.ElapsedMS)
		case "support":
			return seen.once(13) && d.int(&r.Support)
		case "confidence":
			return seen.once(14) && d.float(&r.Confidence)
		case "lift":
			return seen.once(15) && d.float(&r.Lift)
		case "identified":
			return seen.once(16) && packed(&d, &r.Identified, packedIDs)
		case "skew":
			return seen.once(17) && d.float(&r.Skew)
		case "fragments":
			return seen.once(18) && d.nested(&r.Fragments)
		case "labels":
			return seen.once(19) && d.int(&r.Labels)
		case "triples":
			return seen.once(20) && d.nested(&r.Triples)
		case "tripleRows":
			return seen.once(21) && d.nested(&r.TripleRows)
		case "labelNames":
			return seen.once(22) && d.nested(&r.LabelNames)
		case "deltas":
			return seen.once(23) && d.deltas(&r.Deltas)
		case "session":
			return seen.once(24) && d.str(&r.Session)
		case "tenants":
			return seen.once(25) && d.nested(&r.Tenants)
		case "obs":
			return seen.once(26) && d.nested(&r.Obs)
		case "profile":
			return seen.once(27) && d.nested(&r.Profile)
		}
		return false
	}) && d.end()
}

// fieldSet holds the fields of one object read so far: a repeated key is
// left to encoding/json, whose rules for it differ by type.
type fieldSet uint32

func (s *fieldSet) once(i uint) bool {
	if *s&(1<<i) != 0 {
		return false
	}
	*s |= 1 << i
	return true
}

// wireReader reads the JSON that the envelope's writers produce, plus
// whitespace between tokens and string escapes. Each reader reports false
// for anything else, whereupon the caller leaves the line to encoding/json:
// a key that is not a field's exact name, or has escapes; null; a number
// that is not an integer where one is wanted; a literal of another type;
// an id list or batch spelled as an array.
type wireReader struct {
	data []byte
	off  int
}

func (d *wireReader) ws() {
	for d.off < len(d.data) {
		switch d.data[d.off] {
		case ' ', '\t', '\n', '\r':
			d.off++
		default:
			return
		}
	}
}

// next skips whitespace and consumes c if c comes next.
func (d *wireReader) next(c byte) bool {
	d.ws()
	if d.off < len(d.data) && d.data[d.off] == c {
		d.off++
		return true
	}
	return false
}

// end reports whether nothing but whitespace is left.
func (d *wireReader) end() bool {
	d.ws()
	return d.off == len(d.data)
}

// object reads an object whose keys are plain ASCII, calling field with
// each key once its colon is read; field reads the value.
func (d *wireReader) object(field func(key []byte) bool) bool {
	if !d.next('{') {
		return false
	}
	if d.next('}') {
		return true
	}
	for {
		if !d.next('"') {
			return false
		}
		start := d.off
		for d.off < len(d.data) && htmlSafe[d.data[d.off]&0x7f] && d.data[d.off] < utf8.RuneSelf {
			d.off++
		}
		key := d.data[start:d.off]
		if !d.next('"') || !d.next(':') || !field(key) {
			return false
		}
		if !d.next(',') {
			return d.next('}')
		}
	}
}

// literal reads a string literal JSON's grammar accepts and returns it,
// quotes included, and whether its content is plain ASCII needing no
// unquoting.
func (d *wireReader) literal() (lit []byte, plain, ok bool) {
	if !d.next('"') {
		return nil, false, false
	}
	start := d.off - 1
	plain = true
	for d.off < len(d.data) {
		switch c := d.data[d.off]; {
		case c == '"':
			d.off++
			return d.data[start:d.off], plain, true
		case c < ' ':
			return nil, false, false
		case c == '\\':
			plain = false
			if d.off+1 == len(d.data) {
				return nil, false, false
			}
			switch d.data[d.off+1] {
			case '"', '\\', '/', 'b', 'f', 'n', 'r', 't':
				d.off += 2
			case 'u':
				if getu4(d.data[d.off:]) < 0 {
					return nil, false, false
				}
				d.off += 6
			default:
				return nil, false, false
			}
		default:
			plain = plain && c < utf8.RuneSelf
			d.off++
		}
	}
	return nil, false, false
}

// cmd reads a command name: a name the server serves is its table's own
// string, so decoding a request's command allocates nothing.
func (d *wireReader) cmd(p *string) bool {
	lit, plain, ok := d.literal()
	if !ok {
		return false
	}
	if name, known := commandNames[string(lit[1:len(lit)-1])]; plain && known {
		*p = name
		return true
	}
	return setString(p, lit, plain)
}

// commandNames maps every command name the servers serve to itself.
var commandNames = func() map[string]string {
	m := make(map[string]string, len(commands)+len(sessionCommands))
	for name := range commands {
		m[name] = name
	}
	for name := range sessionCommands {
		m[name] = name
	}
	return m
}()

func (d *wireReader) str(p *string) bool {
	lit, plain, ok := d.literal()
	return ok && setString(p, lit, plain)
}

// setString sets *p to the string the literal lit spells; plain says it
// holds no escape.
func setString(p *string, lit []byte, plain bool) bool {
	if plain {
		*p = string(lit[1 : len(lit)-1])
		return true
	}
	var buf [64]byte
	s, ok := unquote(buf[:0], lit)
	*p = string(s)
	return ok
}

// i64 reads an integer: no fraction or exponent, and within int64.
func (d *wireReader) i64(p *int64) bool {
	d.ws()
	neg := d.off < len(d.data) && d.data[d.off] == '-'
	if neg {
		d.off++
	}
	start := d.off
	var u uint64
	for d.off < len(d.data) && '0' <= d.data[d.off] && d.data[d.off] <= '9' {
		u = u*10 + uint64(d.data[d.off]-'0')
		d.off++
	}
	n := d.off - start
	// 19 digits hold any int64 and cannot overflow u; a leading zero is
	// not JSON.
	if n == 0 || n > 19 || n > 1 && d.data[start] == '0' {
		return false
	}
	switch {
	case neg && u <= 1<<63:
		*p = int64(-u)
	case !neg && u <= math.MaxInt64:
		*p = int64(u)
	default:
		return false
	}
	return true
}

// u64 reads an unsigned integer. A sign, which encoding/json refuses into
// an unsigned field (-0 included), and a value past MaxUint64 are left to
// encoding/json.
func (d *wireReader) u64(p *uint64) bool {
	d.ws()
	start := d.off
	var u uint64
	for d.off < len(d.data) && '0' <= d.data[d.off] && d.data[d.off] <= '9' {
		c := uint64(d.data[d.off] - '0')
		if u > (math.MaxUint64-c)/10 {
			return false
		}
		u = u*10 + c
		d.off++
	}
	if n := d.off - start; n == 0 || n > 1 && d.data[start] == '0' {
		return false
	}
	*p = u
	return true
}

func (d *wireReader) int(p *int) bool {
	var v int64
	if !d.i64(&v) || int64(int(v)) != v {
		return false
	}
	*p = int(v)
	return true
}

// float reads a number as JSON's grammar has it, parsed as encoding/json
// parses one.
func (d *wireReader) float(p *float64) bool {
	d.ws()
	start := d.off
	take := func(set string) bool {
		if d.off < len(d.data) && strings.IndexByte(set, d.data[d.off]) >= 0 {
			d.off++
			return true
		}
		return false
	}
	digits := func() int {
		from := d.off
		for take("0123456789") {
		}
		return d.off - from
	}
	take("-")
	if n := digits(); n == 0 || n > 1 && d.data[d.off-n] == '0' {
		return false
	}
	if take(".") && digits() == 0 {
		return false
	}
	if take("eE") {
		take("+-")
		if digits() == 0 {
			return false
		}
	}
	f, err := strconv.ParseFloat(string(d.data[start:d.off]), 64)
	*p = f
	return err == nil
}

func (d *wireReader) bool(p *bool) bool {
	d.ws()
	for _, lit := range [...]string{"false", "true"} {
		if len(d.data)-d.off >= len(lit) && string(d.data[d.off:d.off+len(lit)]) == lit {
			d.off += len(lit)
			*p = lit == "true"
			return true
		}
	}
	return false
}

// packed reads an IDList or Batch in the packed form, as the type's
// UnmarshalJSON does (packedIDs, packedBatch).
func packed[T any](d *wireReader, p *T, read func(lit []byte) (T, error)) bool {
	lit, _, ok := d.literal()
	if !ok {
		return false
	}
	v, err := read(lit)
	*p = v
	return err == nil
}

// nested reads any value into p through json.Unmarshal. The value is the
// one encoding/json decodes in place; on an error it decodes the whole line
// anyway, to get the error encoding/json reports there.
func (d *wireReader) nested(p any) bool {
	d.ws()
	start, depth := d.off, 0
	for d.off < len(d.data) {
		switch c := d.data[d.off]; {
		case c == '"':
			if _, _, ok := d.literal(); !ok {
				return false
			}
		case c == '[' || c == '{':
			depth++
			d.off++
		case c == ']' || c == '}':
			if depth == 0 {
				return false
			}
			depth--
			d.off++
		case depth > 0:
			d.off++
		default: // a number, true, false or null: up to the next delimiter
			for d.off < len(d.data) && strings.IndexByte(",]} \t\n\r", d.data[d.off]) < 0 {
				d.off++
			}
		}
		if depth == 0 {
			return d.off > start && json.Unmarshal(d.data[start:d.off], p) == nil
		}
	}
	return false
}

func (d *wireReader) metrics(p **match.Metrics) bool {
	m := new(match.Metrics)
	var seen fieldSet
	if !d.object(func(key []byte) bool {
		switch string(key) {
		case "FocusCandidates":
			return seen.once(0) && d.int(&m.FocusCandidates)
		case "Verifications":
			return seen.once(1) && d.int(&m.Verifications)
		case "Extensions":
			return seen.once(2) && d.i64(&m.Extensions)
		case "EarlyAccepts":
			return seen.once(3) && d.int(&m.EarlyAccepts)
		case "AcceptSearches":
			return seen.once(4) && d.int(&m.AcceptSearches)
		case "IncRuns":
			return seen.once(5) && d.int(&m.IncRuns)
		case "IncCandidates":
			return seen.once(6) && d.int(&m.IncCandidates)
		}
		return false
	}) {
		return false
	}
	*p = m
	return true
}

func (d *wireReader) deltas(p *[]WatchDelta) bool {
	if !d.next('[') {
		return false
	}
	out := []WatchDelta{} // [] decodes to an empty list, not to none
	for !d.next(']') {
		if len(out) > 0 && !d.next(',') {
			return false
		}
		var w WatchDelta
		var seen fieldSet
		if !d.object(func(key []byte) bool {
			switch string(key) {
			case "watch":
				return seen.once(0) && d.str(&w.Watch)
			case "added":
				return seen.once(1) && packed(d, &w.Added, packedIDs)
			case "removed":
				return seen.once(2) && packed(d, &w.Removed, packedIDs)
			case "affected":
				return seen.once(3) && d.int(&w.Affected)
			case "resync":
				return seen.once(4) && d.bool(&w.Resync)
			}
			return false
		}) {
			return false
		}
		out = append(out, w)
	}
	*p = out
	return true
}

// unquote appends to dst the content of the string literal lit as
// encoding/json decodes it: escapes resolved, a \u surrogate pair joined and a lone
// surrogate turned into U+FFFD, and each byte that is not valid UTF-8
// replaced by U+FFFD.
func unquote(dst, lit []byte) ([]byte, bool) {
	if len(lit) < 2 || lit[0] != '"' || lit[len(lit)-1] != '"' {
		return nil, false
	}
	s := lit[1 : len(lit)-1]
	out := slices.Grow(dst, len(s))
	for r := 0; r < len(s); {
		c := s[r]
		switch {
		case c == '\\' && r+1 < len(s):
			if e := s[r+1]; e == 'u' {
				rr := getu4(s[r:])
				if rr < 0 {
					return nil, false
				}
				r += 6
				if utf16.IsSurrogate(rr) {
					if dec := utf16.DecodeRune(rr, getu4(s[r:])); dec != unicode.ReplacementChar {
						r += 6
						rr = dec
					} else {
						rr = unicode.ReplacementChar
					}
				}
				out = utf8.AppendRune(out, rr)
				continue
			} else if i := strings.IndexByte(`"\/'bfnrt`, e); i >= 0 {
				out = append(out, "\"\\/'\b\f\n\r\t"[i])
				r += 2
				continue
			}
			return nil, false
		case c == '\\' || c == '"' || c < ' ':
			return nil, false
		case c < utf8.RuneSelf:
			out = append(out, c)
			r++
		default:
			rr, size := utf8.DecodeRune(s[r:])
			out = utf8.AppendRune(out, rr)
			r += size
		}
	}
	return out, true
}

// getu4 decodes the \uXXXX escape at the start of s, or returns -1.
func getu4(s []byte) rune {
	if len(s) < 6 || s[0] != '\\' || s[1] != 'u' {
		return -1
	}
	var r rune
	for _, c := range s[2:6] {
		switch {
		case '0' <= c && c <= '9':
			c -= '0'
		case 'a' <= c && c <= 'f':
			c -= 'a' - 10
		case 'A' <= c && c <= 'F':
			c -= 'A' - 10
		default:
			return -1
		}
		r = r*16 + rune(c)
	}
	return r
}
