package core

import (
	"errors"
	"strings"
	"testing"

	"repro/internal/arena"
	"repro/internal/gpusim"
)

// TestCodecRegistryLookups: every shipped mode resolves by wire ID and by
// name, IDs are stable, and the Codecs listing is ID-ordered.
func TestCodecRegistryLookups(t *testing.T) {
	want := map[CodecID]string{
		CodecHiCR:   "hi-cr",
		CodecHiTP:   "hi-tp",
		CodecCuszI:  "cusz-i",
		CodecCuszIB: "cusz-ib",
		CodecCuszL:  "cusz-l",
		CodecFzGPU:  "fzgpu",
		CodecSZp:    "szp",
		CodecSZx:    "szx",
	}
	for id, name := range want {
		c, ok := CodecByID(id)
		if !ok || c.Name() != name || c.ID() != id {
			t.Fatalf("CodecByID(%d) = %v, %v", id, c, ok)
		}
		byName, ok := CodecByName(name)
		if !ok || byName.ID() != id {
			t.Fatalf("CodecByName(%q) = %v, %v", name, byName, ok)
		}
	}
	if _, ok := CodecByID(0); ok {
		t.Fatal("ID 0 resolved")
	}
	if _, ok := CodecByID(200); ok {
		t.Fatal("unregistered ID resolved")
	}
	if _, ok := CodecByName("nope"); ok {
		t.Fatal("unregistered name resolved")
	}
	all := Codecs()
	if len(all) != len(want) {
		t.Fatalf("%d registered codecs, want %d", len(all), len(want))
	}
	for i := 1; i < len(all); i++ {
		if all[i-1].ID() >= all[i].ID() {
			t.Fatal("Codecs not ordered by ID")
		}
	}
}

// TestCodecCompressMatchesOptionsPath: a registered codec's Compress must
// be byte-identical to CompressCtx with the equivalent Options, and its
// Decompress must reverse it — the registry is a dispatch layer, not a
// different encoder.
func TestCodecCompressMatchesOptionsPath(t *testing.T) {
	data := rampField(8 * 8 * 8)
	dims := []int{8, 8, 8}
	dev1 := gpusim.New(1)
	for _, name := range []string{"hi-tp", "cusz-l"} {
		cd, ok := CodecByName(name)
		if !ok {
			t.Fatal(name)
		}
		opts, err := ModeOptions(name)
		if err != nil {
			t.Fatal(err)
		}
		want, err := CompressCtx(nil, dev1, data, dims, 0.02, opts)
		if err != nil {
			t.Fatal(err)
		}
		got, err := cd.Compress(nil, dev1, data, dims, 0.02)
		if err != nil {
			t.Fatal(err)
		}
		if len(got) != len(want) || string(got) != string(want) {
			t.Fatalf("%s: codec output diverges from Options output", name)
		}
		recon, rdims, err := cd.Decompress(nil, dev1, got)
		if err != nil || len(recon) != len(data) || rdims[0] != 8 {
			t.Fatalf("%s: codec decompress: %v", name, err)
		}
	}
}

// TestRegisterCodecPanics: duplicate IDs/names and the reserved zero ID
// are programming errors caught at registration.
func TestRegisterCodecPanics(t *testing.T) {
	expectPanic := func(name string, c Codec) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Fatalf("%s: RegisterCodec did not panic", name)
			}
		}()
		RegisterCodec(c)
	}
	expectPanic("zero id", &assemblyCodec{id: 0, name: "zero", newOpts: CuszL})
	expectPanic("dup id", &assemblyCodec{id: CodecCuszL, name: "fresh", newOpts: CuszL})
	expectPanic("dup name", &assemblyCodec{id: 99, name: "cusz-l", newOpts: CuszL})
}

// TestUnknownPredictorAndPipelineAreCorrupt: decode-side registry misses
// surface as ErrCorrupt (never a panic), and encode-side misses as plain
// errors.
func TestUnknownPredictorAndPipelineAreCorrupt(t *testing.T) {
	data := rampField(4 * 4 * 4)
	dims := []int{4, 4, 4}
	opts := CuszL()
	opts.Predictor = 9
	if _, err := CompressCtx(nil, dev, data, dims, 0.1, opts); err == nil || errors.Is(err, ErrCorrupt) {
		t.Fatalf("unknown predictor on encode: err = %v", err)
	}
	opts = CuszL()
	opts.Pipeline = 9
	if _, err := CompressCtx(nil, dev, data, dims, 0.1, opts); err == nil ||
		!strings.Contains(err.Error(), "unsupported with the Lorenzo predictor") {
		t.Fatalf("unknown pipeline on encode: err = %v", err)
	}

	blob, err := CompressCtx(nil, dev, data, dims, 0.1, CuszL())
	if err != nil {
		t.Fatal(err)
	}
	bad := append([]byte(nil), blob...)
	bad[5] = 9 // predictor wire byte
	if _, _, err := DecompressCtx(nil, dev, bad); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("unknown predictor on decode: err = %v", err)
	}
}

// TestModeOptionsRegistryBacked: ModeOptions is served by the registry and
// returns independent Options values (callers may mutate them freely).
func TestModeOptionsRegistryBacked(t *testing.T) {
	a, err := ModeOptions("hi-cr")
	if err != nil {
		t.Fatal(err)
	}
	b, err := ModeOptions("hi-cr")
	if err != nil {
		t.Fatal(err)
	}
	if len(a.Interp.PerLevel) == 0 {
		t.Fatal("hi-cr has no per-level configs")
	}
	a.Interp.PerLevel[0].Spline++ // must not leak into b
	if a.Interp.PerLevel[0] == b.Interp.PerLevel[0] {
		t.Fatal("ModeOptions returns aliased PerLevel slices")
	}
	if _, err := ModeOptions("auto"); err == nil {
		t.Fatal("auto is not a fixed assembly")
	}
	if _, err := ModeOptions("nope"); err == nil {
		t.Fatal("unknown mode accepted")
	}
}

// TestSelectShardCodecPicksPlausibly: a smooth shard goes to the
// interpolation family, a noisy one decodes correctly whatever wins; the
// returned codec always round-trips its own shard.
func TestSelectShardCodecPicksPlausibly(t *testing.T) {
	dims := []int{20, 12, 12}
	smooth := make([]float32, 20*12*12)
	for i := range smooth {
		smooth[i] = float32(i) * 0.001
	}
	ctx := arena.NewCtx()
	cd, _, err := SelectShardCodecPolicy(ctx, dev, smooth, dims, 0.01, nil)
	if err != nil {
		t.Fatal(err)
	}
	blob, err := cd.Compress(nil, dev, smooth, dims, 0.01)
	if err != nil {
		t.Fatal(err)
	}
	recon, _, err := DecompressCtx(nil, dev, blob)
	if err != nil || len(recon) != len(smooth) {
		t.Fatalf("selected codec %s failed its own shard: %v", cd.Name(), err)
	}
	if _, _, err := SelectShardCodecPolicy(ctx, dev, nil, nil, 0.01, nil); err == nil {
		t.Fatal("empty shard accepted")
	}
}
