package serve

// The shard-key scheme shared by the gateway's result cache and the
// fleet router's consistent-hash ring (internal/fleet). The router
// places a request on the replica that owns its key; the replica's LRU
// and coalescer then stay hot on exactly that key range — shard
// affinity equals cache affinity precisely because both sides derive
// their keys here, from the same canonicalization, and cannot drift.

import (
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"fmt"

	"nbhd/internal/backend"
)

// ShardKey is the canonical identity of one classification answer: the
// route (backend) name, the backend's numeric path, the canonicalized
// request options, and the frame identity. It is the gateway's LRU
// result-cache key and the fleet router's hash-ring key.
//
// The quantized flag is part of the key on purpose: the int8 inference
// path carries no bit-identity contract with f32, so a quantized and a
// non-quantized backend with otherwise-identical options must never
// alias to one cache entry.
func ShardKey(backendName string, quantized bool, opts backend.Options, frameKey string) string {
	path := "f32"
	if quantized {
		path = "q8"
	}
	return backendName + "|" + path + "|" + optionsKey(opts) + "|" + frameKey
}

// RequestShardKey derives a /v1/classify request's shard key from the
// wire form alone — no dataset, no backend pool — which is what lets
// the fleet router pick the owning replica before the frame is ever
// rendered. The quantized flag comes from the route's backend spec (the
// router's side of Capabilities.Quantized).
//
// The frame component is coarser than the gateway's own: index-addressed
// frames key as "idx:N" without the render size (the size is a pure
// function of the route and the gateway config, so given the backend
// name it adds no information), and uploaded images key by a hash of
// their encoded payload rather than their decoded pixels. Both
// refinements preserve the property that matters: two requests with
// equal gateway cache keys always have equal shard keys, so one
// replica's cache serves them both. (Two distinct encodings of the same
// pixels may shard to different replicas; each replica then caches its
// own copy — a mild duplication, never an inconsistency.)
func RequestShardKey(req *ClassifyRequest, quantized bool) (string, error) {
	opts, herr := req.options()
	if herr != nil {
		return "", errors.New(herr.Message)
	}
	fk, err := frameRefKey(&req.Frame)
	if err != nil {
		return "", err
	}
	return ShardKey(req.Backend, quantized, opts, fk), nil
}

// NeighborhoodShardKey derives a /v1/neighborhood request's shard key.
// A neighborhood sweep fans into many frames around one center, so it
// keys by (backend, options, center, radius): repeated queries for the
// same area land on the same replica, whose LRU already holds that
// area's frames — and /v1/classify requests for those frames shard
// near-uniformly, which is the best a router can do without rendering.
func NeighborhoodShardKey(req *NeighborhoodRequest, quantized bool) (string, error) {
	if req.Lat == nil || req.Lng == nil {
		return "", fmt.Errorf("lat and lng are required")
	}
	opts, herr := req.options()
	if herr != nil {
		return "", errors.New(herr.Message)
	}
	fk := fmt.Sprintf("nbhd:%g,%g@%g", *req.Lat, *req.Lng, req.RadiusFeet)
	return ShardKey(req.Backend, quantized, opts, fk), nil
}

// frameRefKey fingerprints a wire frame reference without decoding it.
func frameRefKey(ref *FrameRef) (string, error) {
	if err := ref.checkRefs(); err != nil {
		return "", err
	}
	switch {
	case ref.Index != nil:
		return fmt.Sprintf("idx:%d", *ref.Index), nil
	case ref.ImagePNGBase64 != "":
		sum := sha256.Sum256([]byte(ref.ImagePNGBase64))
		return "b64png:" + hex.EncodeToString(sum[:]), nil
	default:
		sum := sha256.Sum256(ref.imageF32())
		return fmt.Sprintf("b64f32:%dx%d:%s", ref.Width, ref.Height, hex.EncodeToString(sum[:])), nil
	}
}
