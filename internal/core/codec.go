// Codec registry: the single dispatch surface for compressor assemblies.
//
// The paper's central observation is that no single assembly (cuSZ-Hi-CR,
// cuSZ-Hi-TP, cuSZ-I, cuSZ-IB, cuSZ-L) wins on every field, so this
// repository treats an assembly as a first-class Codec with a stable 1-byte
// wire ID. The registry replaces the predictor/pipeline switch ladders that
// used to live in CompressCtx/DecompressCtx: mode names resolve through it
// (ModeOptions), chunked format-v5 containers record a codec ID per chunk
// frame, and decoders dispatch unknown wire IDs to ErrCorrupt instead of
// panicking. Future chunk backends (fzgpu, bitcomp containers) register new
// IDs without touching the container plumbing.
//
// Registration happens at package initialization; the registry is
// read-only afterwards, so decode paths read it without locking.
package core

import (
	"fmt"
	"sort"

	"repro/internal/arena"
	"repro/internal/gpusim"
)

// CodecID is the stable 1-byte wire identifier of a registered codec, as
// recorded per chunk frame (and in the chunk-index footer) of format-v5
// containers. 0 is reserved as invalid; IDs are append-only — never reuse
// or renumber a shipped ID.
type CodecID byte

// Wire IDs of the built-in assemblies.
const (
	codecInvalid CodecID = 0
	CodecHiCR    CodecID = 1 // cuSZ-Hi-CR
	CodecHiTP    CodecID = 2 // cuSZ-Hi-TP
	CodecCuszI   CodecID = 3 // cuSZ-I
	CodecCuszIB  CodecID = 4 // cuSZ-IB
	CodecCuszL   CodecID = 5 // cuSZ-L
)

// Codec is one registered compressor assembly: a named, wire-identified
// pair of compress/decompress entry points producing self-contained (v1)
// shard payloads.
type Codec interface {
	// Name is the codec's mode name ("hi-cr", "cusz-l", ...), the string
	// accepted by ModeOptions and the CLI -mode flag.
	Name() string
	// ID is the codec's wire identifier, recorded per chunk in v5 frames.
	ID() CodecID
	// Compress encodes data (dims slowest-first) under absolute bound eb,
	// drawing scratch from ctx (nil allowed). The returned container is a
	// fresh allocation owned by the caller.
	Compress(ctx *arena.Ctx, dev *gpusim.Device, data []float32, dims []int, eb float64) ([]byte, error)
	// Decompress decodes a payload this codec produced. With a non-nil ctx
	// the returned field and dims are context scratch (valid until Reset).
	Decompress(ctx *arena.Ctx, dev *gpusim.Device, payload []byte) ([]float32, []int, error)
}

// codecEntry caches registration-time metadata next to the codec so hot
// decode paths never rebuild it.
type codecEntry struct {
	codec Codec
	// mode is CodecMode(options) for assembly codecs — the packed
	// predictor/pipeline byte a v5 frame must also carry; hasMode is false
	// for codecs that do not expose Options.
	mode    byte
	hasMode bool
}

var (
	codecsByID   = map[CodecID]codecEntry{}
	codecsByName = map[string]codecEntry{}
)

// optioned is the optional interface assembly codecs implement so the
// registry can derive their frame codec-mode byte and resolve Options.
type optioned interface {
	Options() Options
}

// RegisterCodec adds c to the registry. It must be called during package
// initialization (the registry is lock-free read-only afterwards) and
// panics on a zero ID or a duplicate ID/name — both are programming errors.
func RegisterCodec(c Codec) {
	id, name := c.ID(), c.Name()
	if id == codecInvalid {
		panic("core: codec ID 0 is reserved")
	}
	if _, dup := codecsByID[id]; dup {
		panic(fmt.Sprintf("core: duplicate codec ID %d", id))
	}
	if _, dup := codecsByName[name]; dup {
		panic(fmt.Sprintf("core: duplicate codec name %q", name))
	}
	e := codecEntry{codec: c}
	if oc, ok := c.(optioned); ok {
		e.mode = CodecMode(oc.Options())
		e.hasMode = true
	}
	codecsByID[id] = e
	codecsByName[name] = e
}

// CodecByID returns the codec registered under the wire ID. It runs once
// per chunk on the mixed-codec decode path.
//
//cuszhi:hotpath
func CodecByID(id CodecID) (Codec, bool) {
	e, ok := codecsByID[id]
	return e.codec, ok
}

// CodecByName returns the codec registered under the mode name.
func CodecByName(name string) (Codec, bool) {
	e, ok := codecsByName[name]
	return e.codec, ok
}

// Codecs lists every registered codec, ordered by wire ID.
func Codecs() []Codec {
	out := make([]Codec, 0, len(codecsByID))
	for _, e := range codecsByID {
		out = append(out, e.codec)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].ID() < out[j].ID() })
	return out
}

// CodecLabel formats a codec wire ID for diagnostics: "name (id N)" for a
// registered codec, "none" for the v2–v4 frames that carry no ID, and
// "unknown id N" otherwise. Cross-check error messages use it so a
// frame/footer disagreement names the codecs involved.
func CodecLabel(id CodecID) string {
	if id == codecInvalid {
		return "none"
	}
	if e, ok := codecsByID[id]; ok {
		return fmt.Sprintf("%s (id %d)", e.codec.Name(), id)
	}
	return fmt.Sprintf("unknown id %d", id)
}

// codecFrameMode returns the packed predictor/pipeline byte the registered
// codec's v5 frames carry, or ok=false when the codec exposes no Options.
//
//cuszhi:hotpath
func codecFrameMode(id CodecID) (byte, bool) {
	e, ok := codecsByID[id]
	if !ok || !e.hasMode {
		return 0, false
	}
	return e.mode, true
}

// codecForFrameMode maps a chunk frame's packed codec-mode byte back to
// the registered assembly that writes it, or ok=false when no registered
// assembly uses that byte. Appendable-store recovery uses it to re-derive
// a crashed v2–v4 writer's codec from the frames already on disk.
func codecForFrameMode(mode byte) (Codec, bool) {
	for _, e := range codecsByID {
		if e.hasMode && e.mode == mode {
			return e.codec, true
		}
	}
	return nil, false
}

// assemblyCodec adapts an Options constructor to the Codec interface. The
// constructor runs per use so callers can never mutate shared state (the
// Options carry a PerLevel slice).
type assemblyCodec struct {
	id      CodecID
	name    string
	newOpts func() Options
}

func (a *assemblyCodec) Name() string     { return a.name }
func (a *assemblyCodec) ID() CodecID      { return a.id }
func (a *assemblyCodec) Options() Options { return a.newOpts() }

func (a *assemblyCodec) Compress(ctx *arena.Ctx, dev *gpusim.Device, data []float32, dims []int, eb float64) ([]byte, error) {
	return CompressCtx(ctx, dev, data, dims, eb, a.newOpts())
}

func (a *assemblyCodec) Decompress(ctx *arena.Ctx, dev *gpusim.Device, payload []byte) ([]float32, []int, error) {
	return DecompressCtx(ctx, dev, payload)
}

func init() {
	RegisterCodec(&assemblyCodec{id: CodecHiCR, name: "hi-cr", newOpts: HiCR})
	RegisterCodec(&assemblyCodec{id: CodecHiTP, name: "hi-tp", newOpts: HiTP})
	RegisterCodec(&assemblyCodec{id: CodecCuszI, name: "cusz-i", newOpts: CuszI})
	RegisterCodec(&assemblyCodec{id: CodecCuszIB, name: "cusz-ib", newOpts: CuszIB})
	RegisterCodec(&assemblyCodec{id: CodecCuszL, name: "cusz-l", newOpts: CuszL})
}
