package dataset

import (
	"encoding/binary"
	"encoding/json"
	"errors"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
)

// goldenDirs are the committed datasets the fuzz targets seed from.
var goldenDirs = []string{"testdata/golden_v1", "testdata/golden_v2"}

// FuzzDecodeManifest: decodeManifest never panics, refuses bad input
// with ErrCorrupt or the unsupported-schema error, and a manifest it
// accepts encodes and decodes to an equal value.
func FuzzDecodeManifest(f *testing.F) {
	for _, dir := range goldenDirs {
		raw, err := os.ReadFile(filepath.Join(dir, ManifestName))
		if err != nil {
			f.Fatal(err)
		}
		f.Add(raw)
	}
	f.Fuzz(func(t *testing.T, raw []byte) {
		m, err := decodeManifest(raw, "fuzz")
		if err != nil {
			if !errors.Is(err, ErrCorrupt) && !strings.Contains(err.Error(), "unsupported schema") {
				t.Fatalf("decode error neither corrupt nor unsupported schema: %v", err)
			}
			return
		}
		out, err := json.Marshal(m)
		if err != nil {
			t.Fatalf("accepted manifest does not encode: %v", err)
		}
		again, err := decodeManifest(out, "fuzz")
		if err != nil {
			t.Fatalf("re-encoded manifest refused: %v\n%s", err, out)
		}
		if !reflect.DeepEqual(m, again) {
			t.Fatalf("manifest changed across encode and decode:\n got %+v\nwant %+v", again, m)
		}
	})
}

// shardKinds indexes the shard kinds for FuzzDecodeRecord's kind byte.
var shardKinds = []string{KindPassive, KindActive, KindAux, KindTrace}

// FuzzDecodeRecord: Dataset.decodeInto never panics on any record
// payload in any shard kind, and refuses what it cannot decode with
// ErrCorrupt. Seeds are every record of the golden shards, each under
// the kind of the shard it came from.
func FuzzDecodeRecord(f *testing.F) {
	for _, dir := range goldenDirs {
		m, err := readManifest(dir)
		if err != nil {
			f.Fatal(err)
		}
		for _, sh := range m.Shards {
			kind := uint8(0)
			for i, k := range shardKinds {
				if k == sh.Kind {
					kind = uint8(i)
				}
			}
			raw, err := os.ReadFile(filepath.Join(dir, sh.File))
			if err != nil {
				f.Fatal(err)
			}
			for len(raw) > 0 {
				n, w := binary.Uvarint(raw)
				if w <= 0 || uint64(len(raw)-w) < n {
					f.Fatalf("%s/%s: bad record frame", dir, sh.File)
				}
				f.Add(kind, sh.Month, raw[w:w+int(n)])
				raw = raw[w+int(n):]
			}
		}
	}
	f.Fuzz(func(t *testing.T, kind uint8, month string, payload []byte) {
		sh := ShardInfo{File: "fuzz.bin", Kind: shardKinds[int(kind)%len(shardKinds)], Month: month}
		if err := (&Dataset{}).decodeInto(sh, payload); err != nil && !errors.Is(err, ErrCorrupt) {
			t.Fatalf("decode error is not ErrCorrupt: %v", err)
		}
	})
}
