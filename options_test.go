package edelab

import (
	"reflect"
	"slices"
	"testing"

	"github.com/extended-dns-errors/edelab/internal/cluster"
	"github.com/extended-dns-errors/edelab/internal/frontend"
	"github.com/extended-dns-errors/edelab/internal/resolver"
	"github.com/extended-dns-errors/edelab/internal/transport"
)

// optionLists pins every settable field of the serving tier's option
// structs (for the resolver, the exported fields that are not counters) and
// of a vendor profile: a behaviour class (Support, ServeStale) plus a
// reporting table (Map, ExtraText).
// The rule for adding one: a new option needs two non-test callers that want
// different values. A value every caller leaves at its default, or that only
// a flag with the same default sets, is a constant.
var optionLists = []struct {
	of     any
	fields []string
}{
	{frontend.Config{}, []string{"Shards", "Capacity", "MaxInflight", "QueryTimeout", "StaleWindow", "ErrorTTL", "Now", "Peek"}},
	{transport.Config{}, []string{"Handler", "MaxConns", "MaxPipeline", "MaxUDPInflight", "Wire", "DisableWire", "TCPKeepalive", "IdleTimeout", "Registry"}},
	{cluster.Config{}, []string{"Seed", "Frontend", "HotThreshold", "ForwardTimeout", "RemoteFailureLimit", "Manifest"}},
	{resolver.Resolver{}, []string{"Net", "Roots", "Profile", "TrustAnchor", "Now", "Transport", "DisableDelegationCache", "AnswerCacheReadOnly", "Cache"}},
	{resolver.Profile{}, []string{"Name", "Support", "Map", "ExtraText", "ServeStale"}},
}

// TestOptionListsClosed fails when one of the option structs gains or loses
// a settable field. A knob no caller sets still has to be read and
// documented. Each one listed is set by some caller; transport
// MaxPipeline and MaxUDPInflight, cluster ForwardTimeout and
// RemoteFailureLimit, and frontend Shards only by tests that shrink them to
// reach a shed, timeout or eviction path.
func TestOptionListsClosed(t *testing.T) {
	for _, o := range optionLists {
		typ := reflect.TypeOf(o.of)
		var got []string
		for i := 0; i < typ.NumField(); i++ {
			f := typ.Field(i)
			if f.IsExported() && f.Type.PkgPath() != "sync/atomic" {
				got = append(got, f.Name)
			}
		}
		if !slices.Equal(got, o.fields) {
			t.Errorf("%s fields = %v, want %v", typ, got, o.fields)
		}
	}
}
