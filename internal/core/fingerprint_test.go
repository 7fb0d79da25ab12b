package core

import (
	"bufio"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"testing"

	"repro/internal/datagen"
	"repro/internal/gpusim"
	"repro/internal/metrics"
)

// updateFingerprints rewrites testdata/fingerprints.txt from the current
// encoder (go test ./internal/core -run TestEncoderFingerprints -args
// -update). An intentional encoder change regenerates it and says why in
// CHANGES.md; any other change must leave the table alone.
var updateFingerprints = flag.Bool("update", false, "rewrite testdata/fingerprints.txt")

const fingerprintFile = "testdata/fingerprints.txt"

// fingerprintRow is one pinned encode: the container's size and SHA-256,
// and the SHA-256 of its decoded float32 bytes (little-endian).
type fingerprintRow struct {
	key, size, container, decoded string
}

func (r fingerprintRow) String() string {
	return r.key + " " + r.size + " " + r.container + " " + r.decoded
}

func sha256Hex(p []byte) string {
	sum := sha256.Sum256(p)
	return hex.EncodeToString(sum[:])
}

func float32Bytes(vs []float32) []byte {
	out := make([]byte, 4*len(vs))
	for i, v := range vs {
		binary.LittleEndian.PutUint32(out[4*i:], math.Float32bits(v))
	}
	return out
}

// fingerprintRows encodes every pinned configuration: codec IDs 1–8 and
// auto mode, over three datagen fields, two relative bounds and two dims.
// Assemblies are written one-shot (v1); every codec is written chunked in
// 8-plane shards on a 1-worker and a 3-worker device (v5 frames).
func fingerprintRows(t *testing.T) []fingerprintRow {
	t.Helper()
	var modes []string
	for id := CodecHiCR; id <= CodecSZx; id++ {
		cd, ok := CodecByID(id)
		if !ok {
			t.Fatalf("codec id %d not registered", id)
		}
		modes = append(modes, cd.Name())
	}
	modes = append(modes, autoMode)
	devs := map[string]*gpusim.Device{"w1": gpusim.New(1), "w3": gpusim.New(3)}
	var rows []fingerprintRow
	add := func(key string, blob []byte) {
		field, _, err := DecompressCtx(nil, devs["w1"], blob)
		if err != nil {
			t.Fatalf("%s: decode: %v", key, err)
		}
		rows = append(rows, fingerprintRow{key, fmt.Sprint(len(blob)), sha256Hex(blob), sha256Hex(float32Bytes(field))})
	}
	for _, name := range []string{"miranda", "jhtdb", "nyx"} {
		for _, dims := range [][]int{{24, 40, 36}, {33, 17, 9}} {
			f, err := datagen.Generate(name, dims, 1)
			if err != nil {
				t.Fatal(err)
			}
			for _, rel := range []float64{1e-2, 1e-4} {
				eb := metrics.AbsEB(f.Data, rel)
				for _, mode := range modes {
					key := fmt.Sprintf("%s/%s/%g/%dx%dx%d", mode, name, rel, dims[0], dims[1], dims[2])
					if opts, err := ModeOptions(mode); err == nil {
						blob, err := CompressCtx(nil, devs["w1"], f.Data, f.Dims, eb, opts)
						if err != nil {
							t.Fatalf("%s one-shot: %v", key, err)
						}
						add(key+"/oneshot", blob)
					}
					for _, w := range []string{"w1", "w3"} {
						spec, err := ResolveEncodeSpec(mode, "", version5)
						if err != nil {
							t.Fatal(err)
						}
						spec.EB = eb
						blob, err := CompressChunked(devs[w], f.Data, f.Dims, 8, spec)
						if err != nil {
							t.Fatalf("%s chunked %s: %v", key, w, err)
						}
						add(key+"/v5-"+w, blob)
					}
				}
			}
		}
	}
	return rows
}

// TestEncoderFingerprints pins every encoder's output bytes and every
// decoder's reconstruction to the committed table, so that a change which
// moves an encoder and its decoder together — invisible to round-trip
// tests — still fails. Streamed writes are pinned to chunked ones by
// TestInMemoryEqualsStreamed.
func TestEncoderFingerprints(t *testing.T) {
	if runtime.GOARCH != "amd64" {
		t.Skipf("fingerprints are amd64 bytes; on %s the compiler may fuse multiply-adds in the codec kernels (ROADMAP item 3)", runtime.GOARCH)
	}
	rows := fingerprintRows(t)
	if *updateFingerprints {
		var sb strings.Builder
		sb.WriteString("# key size sha256(container) sha256(decoded float32 LE); regenerate with: go test ./internal/core -run TestEncoderFingerprints -args -update\n")
		for _, r := range rows {
			sb.WriteString(r.String() + "\n")
		}
		if err := os.MkdirAll(filepath.Dir(fingerprintFile), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(fingerprintFile, []byte(sb.String()), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	f, err := os.Open(fingerprintFile)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	want := map[string]string{}
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		line := sc.Text()
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		key, _, _ := strings.Cut(line, " ")
		want[key] = line
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	if len(want) != len(rows) {
		t.Errorf("table has %d rows, the encoder produced %d", len(want), len(rows))
	}
	for _, r := range rows {
		if w, ok := want[r.key]; !ok {
			t.Errorf("%s: no row in %s", r.key, fingerprintFile)
		} else if w != r.String() {
			t.Errorf("fingerprint changed:\n got  %s\n want %s", r, w)
		}
	}
}
