package ha

import (
	"maps"
	"os"
	"path/filepath"
	"testing"
)

// FuzzWatchManifest holds watches.json's reader to its writer: any bytes
// read without a panic, and a manifest of either generation that is
// accepted, written back as the v2 manifest and read again, gives the same
// global-name → pattern map.
func FuzzWatchManifest(f *testing.F) {
	for _, name := range []string{"watches.json", "watches.flat.json"} {
		b, err := os.ReadFile(filepath.Join("testdata/journal-ff36622", name))
		if err != nil {
			f.Fatal(err)
		}
		f.Add(b)
	}
	for _, s := range []string{
		`{"v":2,"tenants":{"alice":{"w1":"qgp\nn xo person *\n"},"":{"legacy":"p","a\u001fb":"q"}}}`,
		`{"v":2,"tenants":{"a\u001fb":{"c":"p"},"t":{"":"q"}}}`,
		`{"legacy":"p","alice\u001fw1":"q"}`,
		`{"v":"x"}`, `{"v":1,"tenants":{}}`, `{"v":2}`, `{"v":2,"tenants":null}`,
		`null`, `{}`, `[]`, "{\"a\xff\":\"\xfe\"}", `{"V":2,"Tenants":{"t":{"w":"p"}}}`,
	} {
		f.Add([]byte(s))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		watches, err := readWatches(data)
		if err != nil {
			return
		}
		b, err := encodeWatches(watches)
		if err != nil {
			t.Fatalf("encode %q: %v", watches, err)
		}
		again, err := readWatches(b)
		if err != nil {
			t.Fatalf("%s read as %q, written as %s, which reads back as %v", data, watches, b, err)
		}
		if !maps.Equal(watches, again) {
			t.Fatalf("%s read as %q, written as %s, read back as %q", data, watches, b, again)
		}
	})
}
