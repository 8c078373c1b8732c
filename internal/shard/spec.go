package shard

import (
	"errors"
	"fmt"

	"repro/internal/codec"
	"repro/internal/core"
)

// Spec declares how a service's methods relate to its keyspace — the
// routing contract between the sharded proxy and the member guards.
//
// SingleKey methods take the key as their first argument (a string) and
// are routed to the owning shard. MultiKey methods fan out: each
// argument addresses one key — either a bare string key or an []any
// vector whose first element is the key and which holds that key's
// single-key arguments. The keys are grouped by owner, and each owner
// gets one batch: an invocation of the mapped single-key method ("mget"
// → "get") whose only argument is the list of that owner's elements.
// The owner's Guard runs each element as its own single-key invocation
// and answers with one result per element. Methods in neither set are
// refused: a sharded service has no single context that could answer
// them.
type Spec struct {
	SingleKey []string
	MultiKey  map[string]string
}

func (s Spec) singleSet() map[string]bool {
	m := make(map[string]bool, len(s.SingleKey))
	for _, k := range s.SingleKey {
		m[k] = true
	}
	return m
}

// singleFor reports the single-key method a multi-key method maps to.
func (s Spec) singleFor(method string) (string, bool) {
	m, ok := s.MultiKey[method]
	return m, ok
}

// keyOf extracts the routing key of a single-key invocation.
func keyOf(method string, args []any) (string, error) {
	if len(args) == 0 {
		return "", core.BadArgs(method, "shard: keyed method needs a string key as first argument")
	}
	k, ok := args[0].(string)
	if !ok {
		return "", core.BadArgs(method, fmt.Sprintf("shard: key must be a string, got %T", args[0]))
	}
	return k, nil
}

// keyErrorStruct is the wire name KeyError values lower to when a
// multi-key result crosses a context boundary: a Guard's batch reply,
// and the router facade serving plain-stub clients.
const keyErrorStruct = "shard.KeyError"

// KeyError is one key's failure inside a multi-key result vector:
// the other keys' results are still present at their positions. It
// unwraps to the underlying invocation error.
type KeyError struct {
	Key string
	Err error
}

// Error implements error.
func (e *KeyError) Error() string {
	return fmt.Sprintf("shard: key %q: %v", e.Key, e.Err)
}

// Unwrap exposes the underlying invocation error to errors.As/Is.
func (e *KeyError) Unwrap() error { return e.Err }

// lower converts the KeyError to its wire form. An InvokeError travels
// as its code, method and message, so AsKeyError rebuilds the same
// error and lowering again (the router facade relaying a member's
// batch reply) is lossless.
func (e *KeyError) lower() *codec.Struct {
	code, method, msg := core.CodeApp, "", e.Err.Error()
	if ie, ok := e.Err.(*core.InvokeError); ok {
		code, method, msg = ie.Code, ie.Method, ie.Msg
	} else if errors.As(e.Err, &ie) {
		code = ie.Code
	}
	return &codec.Struct{Name: keyErrorStruct, Fields: []codec.Field{
		{Name: "key", Value: e.Key},
		{Name: "code", Value: int64(code)},
		{Name: "msg", Value: msg},
		{Name: "method", Value: method},
	}}
}

// AsKeyError recognizes a per-key failure inside a multi-key result
// vector, whether it arrived in-process (*KeyError) or across the wire
// (a codec.Struct named shard.KeyError).
func AsKeyError(v any) (*KeyError, bool) {
	switch x := v.(type) {
	case *KeyError:
		return x, true
	case *codec.Struct:
		if x.Name != keyErrorStruct {
			return nil, false
		}
		ke := &KeyError{}
		code, method, msg := int64(core.CodeApp), "", ""
		if k, ok := x.Get("key"); ok {
			ke.Key, _ = k.(string)
		}
		if c, ok := x.Get("code"); ok {
			code, _ = c.(int64)
		}
		if m, ok := x.Get("msg"); ok {
			msg, _ = m.(string)
		}
		if m, ok := x.Get("method"); ok {
			method, _ = m.(string)
		}
		ke.Err = &core.InvokeError{Code: core.Code(code), Method: method, Msg: msg}
		return ke, true
	default:
		return nil, false
	}
}
