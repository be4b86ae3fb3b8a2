package edelab

import (
	"reflect"
	"slices"
	"testing"

	"github.com/extended-dns-errors/edelab/internal/campaign"
	"github.com/extended-dns-errors/edelab/internal/cluster"
	"github.com/extended-dns-errors/edelab/internal/forwarder"
	"github.com/extended-dns-errors/edelab/internal/frontend"
	"github.com/extended-dns-errors/edelab/internal/loadgen"
	"github.com/extended-dns-errors/edelab/internal/population"
	"github.com/extended-dns-errors/edelab/internal/resolver"
	"github.com/extended-dns-errors/edelab/internal/transport"
	"github.com/extended-dns-errors/edelab/internal/zone"
)

// optionLists pins every settable field of the module's option structs: the
// serving tier's, the scan tier's, the zone signer's, the stream client's and
// the load generator's (for the resolver, the exported fields that are not
// counters), and of a vendor profile: a behaviour class (Support,
// ServeStale) plus a reporting table (Map, ExtraText). The .scn language's
// words are pinned by TestScenarioVocabularyUsed in internal/scenario.
// The rule for adding one: a new option needs two non-test callers that want
// different values. A value every caller leaves at its default, or that only
// a flag with the same default sets, is a constant.
var optionLists = []struct {
	of     any
	fields []string
}{
	{frontend.Config{}, []string{"Capacity", "MaxInflight", "QueryTimeout", "StaleWindow", "ErrorTTL", "Now", "Peek"}},
	{transport.Config{}, []string{"Handler", "Wire", "DisableWire", "TCPKeepalive", "Registry"}},
	{transport.StreamClient{}, []string{"Addr", "TLSConfig", "RequestKeepalive"}},
	{cluster.Config{}, []string{"Seed", "Frontend", "Manifest"}},
	{forwarder.Forwarder{}, nil},
	{resolver.Resolver{}, []string{"Net", "Roots", "Profile", "TrustAnchor", "Now", "Transport", "DisableDelegationCache", "AnswerCacheReadOnly", "Cache"}},
	{resolver.Cache{}, nil},
	{resolver.Profile{}, []string{"Name", "Support", "ExtraText", "ServeStale"}},
	{campaign.Config{}, []string{"Shards", "Shard", "Workers", "Profile", "Transport", "CheckpointPath", "CheckpointInterval", "Resume", "AuthorityQPS", "MaxQPS", "Governor", "Registry"}},
	{campaign.GovernorConfig{}, []string{"Min", "Max", "Step"}},
	{population.Config{}, []string{"TotalDomains", "Seed"}},
	{zone.SignOptions{}, []string{"Algorithm", "RSABits", "Inception", "Expiration", "NSEC3Iterations", "DenialNSEC", "KSK", "ZSK"}},
	// The scenario lab sets Timeout, Retries, Backoff and Sleep from a
	// .scn transport line; edescan and edeserver set Retries, RetryBudget
	// and Backoff from their -retries and -retry-budget flags; a
	// rate-capped campaign sets Admit.
	{resolver.TransportConfig{}, []string{"Timeout", "Retries", "RetryBudget", "Backoff", "Sleep", "Admit"}},
	// edeload sets every field from its flags.
	{loadgen.Config{}, []string{"Server", "QPS", "Concurrency", "Duration", "Warmup", "Mix", "QType", "Timeout", "Keepalive"}},
}

// TestOptionListsClosed fails when one of the option structs gains or loses
// a settable field. A knob no caller sets still has to be read and
// documented. Each one listed is set by some non-test caller, except two
// that only tests set and that stay exported on purpose:
//
//   - resolver DisableDelegationCache resolves every name from the root:
//     the reference the root query-amplification gate and ablation
//     benchmarks measure the delegation cache against, in other packages;
//   - zone DenialNSEC signs the plain-NSEC worlds of the resolver's tests
//     (TestNSEC…) and the zone's NSEC chain tests: a fixture other
//     packages build.
//
// A bound a test needs lowered is reached with real load when that is cheap
// (the transport's connection, pipeline and UDP in-flight bounds, the
// cluster's failure limit), or lowered through an unexported field or
// constructor that only its package's tests use (resolver newCache, population
// Config.gTLDs, campaign Config.now, sleep and checkpointEvery, cluster
// Config.forwardTimeout). The stream
// idle timeout is the edns-tcp-keepalive TIMEOUT the server advertises, and
// the frontend's shard count follows Capacity.
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
