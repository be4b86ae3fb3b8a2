package edelab

import (
	"reflect"
	"slices"
	"testing"

	"github.com/extended-dns-errors/edelab/internal/campaign"
	"github.com/extended-dns-errors/edelab/internal/cluster"
	"github.com/extended-dns-errors/edelab/internal/forwarder"
	"github.com/extended-dns-errors/edelab/internal/frontend"
	"github.com/extended-dns-errors/edelab/internal/population"
	"github.com/extended-dns-errors/edelab/internal/resolver"
	"github.com/extended-dns-errors/edelab/internal/transport"
	"github.com/extended-dns-errors/edelab/internal/zone"
)

// optionLists pins every settable field of the module's option structs: the
// serving tier's, the scan tier's, the zone signer's and the stream client's
// (for the resolver and its cache, the exported fields that are not
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
	{frontend.Config{}, []string{"Shards", "Capacity", "MaxInflight", "QueryTimeout", "StaleWindow", "ErrorTTL", "Now", "Peek"}},
	{transport.Config{}, []string{"Handler", "MaxConns", "MaxPipeline", "MaxUDPInflight", "Wire", "DisableWire", "TCPKeepalive", "IdleTimeout", "Registry"}},
	{transport.StreamClient{}, []string{"Addr", "TLSConfig", "RequestKeepalive"}},
	{cluster.Config{}, []string{"Seed", "Frontend", "HotThreshold", "ForwardTimeout", "RemoteFailureLimit", "Manifest"}},
	{forwarder.Forwarder{}, nil},
	{resolver.Resolver{}, []string{"Net", "Roots", "Profile", "TrustAnchor", "Now", "Transport", "DisableDelegationCache", "AnswerCacheReadOnly", "Cache"}},
	{resolver.Cache{}, []string{"MaxEntries"}},
	{resolver.Profile{}, []string{"Name", "Support", "Map", "ExtraText", "ServeStale"}},
	{campaign.Config{}, []string{"Shards", "Shard", "Workers", "Profile", "Transport", "CheckpointPath", "CheckpointInterval", "Resume", "AuthorityQPS", "MaxQPS", "Governor", "Registry"}},
	{campaign.GovernorConfig{}, []string{"Min", "Max", "Step"}},
	{campaign.LimiterConfig{}, []string{"AuthorityQPS", "GlobalQPS", "Now", "Sleep"}},
	{population.Config{}, []string{"TotalDomains", "Seed", "GTLDs"}},
	{zone.SignOptions{}, []string{"Algorithm", "RSABits", "Inception", "Expiration", "NSEC3Iterations", "DenialNSEC", "KSK", "ZSK"}},
}

// TestOptionListsClosed fails when one of the option structs gains or loses
// a settable field. A knob no caller sets still has to be read and
// documented. Each one listed is set by some caller. These only by tests,
// each to reach a path no other input reaches:
//
//   - transport MaxConns (TestConnShed), MaxPipeline (TestPipelineShed),
//     MaxUDPInflight (TestUDPInflightShed, TestRelayDeclines) and IdleTimeout
//     (TestIdleTimeout, TestStreamClientRedialsStaleConnection) shrink a
//     bound to reach a shed or idle-close path;
//   - cluster ForwardTimeout and RemoteFailureLimit (TestClusterRemoteForward,
//     TestRelayPeerKilledTakeover) shorten a dead peer's cost;
//   - frontend Shards (TestEvictionBound, TestLRUKeepsHotEntries) and
//     resolver Cache.MaxEntries (TestCacheMaxEntriesHoldsUnderChurn,
//     TestCacheKeysBounded) shrink a cache to make it evict;
//   - resolver DisableDelegationCache (TestDelegationCacheDisabled and the
//     root ablation benchmarks) resolves every name from the root;
//   - population GTLDs (TestBrokenTLDsFailEveryQuery) needs 1,158 gTLDs to
//     put a plain-NSEC TLD in the bogus-denial set;
//   - zone DenialNSEC signs the resolver's plain-NSEC worlds (TestNSEC…) and
//     the zone's NSEC chain tests;
//   - campaign LimiterConfig Now and Sleep are set by campaign.New, from
//     Config's unexported test clock.
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
