package core

import (
	"bytes"
	"errors"
	"testing"
)

func scan(t *testing.T, blob []byte) *RecoveryInfo {
	t.Helper()
	rec, err := ScanRecovery(bytes.NewReader(blob), int64(len(blob)))
	if err != nil {
		t.Fatalf("ScanRecovery: %v", err)
	}
	return rec
}

// TestScanRecoverySealed proves the scan reconstructs exactly the index a
// healthy container's footer holds, and classifies it as sealed.
func TestScanRecoverySealed(t *testing.T) {
	dims := []int{6, 4, 4}
	data := rampField(6 * 16)

	v4, v4idx := makeV4(t, data, dims, 0.05, 2)
	v5, v5idx := makeV5(t, data, dims, 0.05, 2, []string{"cusz-l", "hi-tp"})
	for _, tc := range []struct {
		name    string
		blob    []byte
		entries []IndexEntry
	}{
		{"v4", v4, v4idx},
		{"v5", v5, v5idx},
	} {
		t.Run(tc.name, func(t *testing.T) {
			rec := scan(t, tc.blob)
			if !rec.Sealed() || rec.Footer != FooterValid {
				t.Fatalf("healthy store not sealed: footer=%v sealed=%v", rec.Footer, rec.Sealed())
			}
			if rec.Planes != dims[0] || rec.TailBytes() != 0 {
				t.Fatalf("planes=%d tail=%d, want %d and 0", rec.Planes, rec.TailBytes(), dims[0])
			}
			if len(rec.Entries) != len(tc.entries) {
				t.Fatalf("scanned %d entries, footer holds %d", len(rec.Entries), len(tc.entries))
			}
			for i, e := range rec.Entries {
				if e != tc.entries[i] {
					t.Fatalf("entry %d: scan %+v vs footer %+v", i, e, tc.entries[i])
				}
			}
		})
	}
}

// TestScanRecoveryV2V3Sealed: footerless formats are sealed exactly when
// the frames end at EOF, and any trailing byte breaks that.
func TestScanRecoveryV2V3Sealed(t *testing.T) {
	dims := []int{4, 3, 3}
	data := rampField(4 * 9)
	v2, err := CompressChunked(dev, data, dims, 2, v2Spec(CuszL(), 0.03))
	if err != nil {
		t.Fatal(err)
	}
	rec := scan(t, v2)
	if rec.Header.Version != 2 || !rec.Sealed() || rec.Footer != FooterMissing {
		t.Fatalf("sealed v2 misclassified: ver=%d sealed=%v", rec.Header.Version, rec.Sealed())
	}
	rec = scan(t, append(append([]byte(nil), v2...), 0xCC))
	if rec.Sealed() || rec.TailBytes() != 1 {
		t.Fatalf("v2 with a trailing byte must be unsealed with tail 1, got sealed=%v tail=%d",
			rec.Sealed(), rec.TailBytes())
	}
}

// TestScanRecoveryTruncated cuts a v5 container mid-frame and checks the
// scan reports the CRC-valid prefix only.
func TestScanRecoveryTruncated(t *testing.T) {
	dims := []int{6, 4, 4}
	data := rampField(6 * 16)
	blob, idx := makeV5(t, data, dims, 0.05, 2, []string{"szx"})
	if len(idx) != 3 {
		t.Fatalf("want 3 chunks, got %d", len(idx))
	}
	// Cut inside the final frame: two frames survive.
	cut := idx[2].FrameOff + 5
	rec := scan(t, blob[:cut])
	if rec.Sealed() || rec.Planes != 4 || len(rec.Entries) != 2 {
		t.Fatalf("got sealed=%v planes=%d entries=%d, want unsealed, 4 planes, 2 entries",
			rec.Sealed(), rec.Planes, len(rec.Entries))
	}
	if rec.FramesEnd != idx[2].FrameOff {
		t.Fatalf("FramesEnd=%d, want last valid boundary %d", rec.FramesEnd, idx[2].FrameOff)
	}
	if rec.Footer != FooterTorn || rec.TailBytes() != cut-idx[2].FrameOff {
		t.Fatalf("footer=%v tail=%d, want torn with %d trailing bytes",
			rec.Footer, rec.TailBytes(), cut-idx[2].FrameOff)
	}
	// Cut inside the header itself: not a scannable container at all.
	if _, err := ScanRecovery(bytes.NewReader(blob[:7]), 7); err == nil {
		t.Fatal("truncated header must fail the scan")
	}
}

// TestScanRecoveryFooterStates drives the footer classifier through its
// torn shapes: a half-written footer, trailing garbage after a valid one,
// and a backpointer that no longer lands on the frame boundary.
func TestScanRecoveryFooterStates(t *testing.T) {
	dims := []int{4, 4, 4}
	data := rampField(4 * 16)
	blob, idx := makeV4(t, data, dims, 0.05, 2)
	framesEnd := idx[len(idx)-1].FrameOff
	// Find the true frames end: last frame offset is known, footer begins
	// at the backpointer in the tail.
	fo, err := ParseChunkIndexTail(blob[len(blob)-IndexTailLen:])
	if err != nil {
		t.Fatal(err)
	}
	if fo <= framesEnd {
		t.Fatalf("backpointer %d not past last frame %d", fo, framesEnd)
	}

	t.Run("half-written", func(t *testing.T) {
		rec := scan(t, blob[:len(blob)-7])
		if rec.Footer != FooterTorn || rec.Sealed() {
			t.Fatalf("footer=%v sealed=%v, want torn/unsealed", rec.Footer, rec.Sealed())
		}
		if rec.FramesEnd != fo || rec.Planes != dims[0] {
			t.Fatalf("frames must survive a torn footer: end=%d planes=%d", rec.FramesEnd, rec.Planes)
		}
	})
	t.Run("garbage-after-footer", func(t *testing.T) {
		mut := append(append([]byte(nil), blob...), 1, 2, 3)
		rec := scan(t, mut)
		if rec.Footer != FooterTorn || rec.TailBytes() != int64(len(mut))-fo {
			t.Fatalf("footer=%v tail=%d", rec.Footer, rec.TailBytes())
		}
	})
	t.Run("misdirected-backpointer", func(t *testing.T) {
		mut := append([]byte(nil), blob...)
		tail := AppendChunkIndexFooter(nil, 4, fo-1, nil)[len(AppendChunkIndexFooter(nil, 4, fo-1, nil))-IndexTailLen:]
		copy(mut[len(mut)-IndexTailLen:], tail)
		rec := scan(t, mut)
		if rec.Footer != FooterTorn {
			t.Fatalf("footer=%v, want torn when the backpointer misses the boundary", rec.Footer)
		}
	})
	t.Run("only-footer-missing", func(t *testing.T) {
		rec := scan(t, blob[:fo])
		if rec.Footer != FooterMissing || rec.Sealed() {
			t.Fatalf("footer=%v sealed=%v, want missing/unsealed", rec.Footer, rec.Sealed())
		}
	})
}

// TestRecoveredCodec checks the writer-state re-derivation for every store
// flavor: uniform v5, mixed v5, moded v4, and an empty prefix.
func TestRecoveredCodec(t *testing.T) {
	dims := []int{4, 4, 4}
	data := rampField(4 * 16)

	uni, _ := makeV5(t, data, dims, 0.05, 2, []string{"szp"})
	rec := scan(t, uni)
	cd, uniform, ok := rec.RecoveredCodec()
	if !ok || !uniform || cd == nil || cd.Name() != "szp" {
		t.Fatalf("uniform v5: cd=%v uniform=%v ok=%v", cd, uniform, ok)
	}

	mixed, _ := makeV5(t, data, dims, 0.05, 2, []string{"cusz-l", "szx"})
	rec = scan(t, mixed)
	if _, uniform, ok := rec.RecoveredCodec(); !ok || uniform {
		t.Fatalf("mixed v5 must report uniform=false ok=true, got %v %v", uniform, ok)
	}

	v4, _ := makeV4(t, data, dims, 0.05, 2)
	rec = scan(t, v4)
	cd, uniform, ok = rec.RecoveredCodec()
	if !ok || !uniform || cd == nil || cd.Name() != "cusz-l" {
		t.Fatalf("v4: cd=%v uniform=%v ok=%v, want cusz-l", cd, uniform, ok)
	}

	// A store with zero valid frames recovers no codec.
	hdr, err := AppendChunkedHeaderSized(nil, 5, dims, 0.05, false, 2, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	rec = scan(t, hdr)
	if _, _, ok := rec.RecoveredCodec(); ok {
		t.Fatal("empty prefix must report ok=false")
	}
}

// TestCodecForFrameMode proves every registered assembly's packed mode
// byte maps back to its own codec — the round trip a crashed v4 writer's
// recovery depends on.
func TestCodecForFrameMode(t *testing.T) {
	hits := 0
	for _, cd := range Codecs() {
		oc, ok := cd.(interface{ Options() Options })
		if !ok {
			continue
		}
		hits++
		mode := CodecMode(oc.Options())
		got, found := codecForFrameMode(mode)
		if !found {
			t.Fatalf("%s: mode %#x not found", cd.Name(), mode)
		}
		if got != cd {
			t.Fatalf("%s: mode %#x recovered as %s", cd.Name(), mode, got.Name())
		}
	}
	if hits < 5 {
		t.Fatalf("only %d assembly codecs seen, want the five cuSZ assemblies", hits)
	}
	if _, found := codecForFrameMode(0xFF); found {
		t.Fatal("unused mode byte must not resolve")
	}
}

// TestAppendChunkedHeaderSized exercises the padded-header writer: exact
// target lengths round-trip through ReadChunkedHeader with identical
// fields, and impossible pads fail instead of corrupting.
func TestAppendChunkedHeaderSized(t *testing.T) {
	dims := []int{7, 5, 3}
	minimal, err := AppendChunkedHeaderSized(nil, 5, dims, 0.01, true, 2, 4, 0)
	if err != nil {
		t.Fatal(err)
	}
	// dims[0] and nchunks are one byte each minimally; together they can
	// widen to 10 bytes apiece — 18 bytes of pad headroom.
	for pad := 0; pad <= 18; pad++ {
		padTo := len(minimal) + pad
		hdr, err := AppendChunkedHeaderSized(nil, 5, dims, 0.01, true, 2, 4, padTo)
		if err != nil {
			t.Fatalf("pad %d: %v", pad, err)
		}
		if len(hdr) != padTo {
			t.Fatalf("pad %d: wrote %d bytes, want %d", pad, len(hdr), padTo)
		}
		cr := bytes.NewReader(hdr)
		h, err := ReadChunkedHeader(cr)
		if err != nil {
			t.Fatalf("pad %d: reread: %v", pad, err)
		}
		if h.Version != 5 || !h.RelEB || h.EB != 0.01 || h.ChunkPlanes != 2 || h.NumChunks != 4 {
			t.Fatalf("pad %d: fields corrupted: %+v", pad, h)
		}
		for i, d := range dims {
			if h.Dims[i] != d {
				t.Fatalf("pad %d: dims %v != %v", pad, h.Dims, dims)
			}
		}
		if cr.Len() != 0 {
			t.Fatalf("pad %d: reader consumed %d of %d bytes", pad, padTo-cr.Len(), padTo)
		}
	}
	if _, err := AppendChunkedHeaderSized(nil, 5, dims, 0.01, true, 2, 4, len(minimal)+19); err == nil {
		t.Fatal("pad past both fields' headroom must fail")
	}
	if _, err := AppendChunkedHeaderSized(nil, 5, dims, 0.01, true, 2, 4, len(minimal)-1); err == nil {
		t.Fatal("padTo below the minimal length must fail")
	}
	// Short interior chunks: nchunks above the ceiling division is legal
	// up to one chunk per plane; beyond that it is not.
	if _, err := AppendChunkedHeaderSized(nil, 5, dims, 0.01, true, 2, 7, 0); err != nil {
		t.Fatalf("nchunks=dims[0] must be accepted: %v", err)
	}
	if _, err := AppendChunkedHeaderSized(nil, 5, dims, 0.01, true, 2, 8, 0); err == nil {
		t.Fatal("nchunks beyond one per plane must fail")
	}
	if _, err := AppendChunkedHeaderSized(nil, 5, dims, 0.01, true, 2, 3, 0); err == nil {
		t.Fatal("nchunks below the ceiling division must fail")
	}
	if _, err := AppendChunkedHeaderSized(nil, 1, dims, 0.01, false, 2, 4, 0); err == nil {
		t.Fatal("v1 is not a chunked header")
	}
}

// TestParseChunkIndexTailHostile: anything but a well-formed 12-byte tail
// is ErrCorrupt — short slices, bad magic, absurd backpointers.
func TestParseChunkIndexTailHostile(t *testing.T) {
	good := AppendChunkIndexFooter(nil, 4, 16, nil)
	tail := good[len(good)-IndexTailLen:]
	if off, err := ParseChunkIndexTail(tail); err != nil || off != 16 {
		t.Fatalf("valid tail: off=%d err=%v", off, err)
	}
	for n := 0; n < IndexTailLen; n++ {
		if _, err := ParseChunkIndexTail(tail[:n]); !errors.Is(err, ErrCorrupt) {
			t.Fatalf("len %d: got %v, want ErrCorrupt", n, err)
		}
	}
	if _, err := ParseChunkIndexTail(append(tail, 0)); !errors.Is(err, ErrCorrupt) {
		t.Fatal("overlong tail must be ErrCorrupt")
	}
	mut := append([]byte(nil), tail...)
	mut[8] ^= 0x20 // break the magic
	if _, err := ParseChunkIndexTail(mut); !errors.Is(err, ErrCorrupt) {
		t.Fatal("bad magic must be ErrCorrupt")
	}
	huge := append([]byte(nil), tail...)
	for i := 0; i < 8; i++ {
		huge[i] = 0xFF // backpointer far past any representable file
	}
	if _, err := ParseChunkIndexTail(huge); !errors.Is(err, ErrCorrupt) {
		t.Fatal("absurd backpointer must be ErrCorrupt")
	}
}
