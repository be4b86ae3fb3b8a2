// Package forwarder is the frontend's upstream contract: Upstream is what
// frontend.New takes, OptionsUpstream also honours the CD bit and
// CallerCaches, ProfiledUpstream names the profile whose serve-stale policy
// and EDE report the frontend follows, and ResolverUpstream adapts a
// resolver.Resolver to all three.
//
// New serves an Upstream with no cache in front of it — over
// ResolverUpstream, a resolver on its own: the reference the tests hold the
// frontend to, and the stream chaos scenarios' handler. It forwards EDE
// options verbatim (RFC 8914 §3) and adds Network Error (EDE 23) when the
// upstream exchange fails.
package forwarder

import (
	"context"
	"time"

	"github.com/extended-dns-errors/edelab/internal/dnswire"
	"github.com/extended-dns-errors/edelab/internal/ede"
	"github.com/extended-dns-errors/edelab/internal/netsim"
	"github.com/extended-dns-errors/edelab/internal/resolver"
)

// Upstream answers recursive queries; *resolver.Resolver satisfies it via
// the Adapter below, and tests can stub it.
type Upstream interface {
	Exchange(ctx context.Context, qname dnswire.Name, qtype dnswire.Type) (*dnswire.Message, error)
}

// Options carries per-query client signals an upstream may honour.
type Options struct {
	// CheckingDisabled is the client's CD bit: the upstream should skip
	// withholding answers on DNSSEC validation failure (RFC 4035 §3.2.2).
	CheckingDisabled bool
	// CallerCaches says the caller caches the answer itself (a frontend), so
	// the upstream should not keep a second copy of it
	// (resolver.QueryOptions.CallerCaches). An upstream without
	// ExchangeWithOptions ignores it and stores as usual, which is safe.
	CallerCaches bool
}

// OptionsUpstream is an Upstream that can honour per-query options. Callers
// fall back to plain Exchange (validating behaviour) when the upstream does
// not implement it, so the CD bit degrades safely to "checking enabled".
type OptionsUpstream interface {
	Upstream
	ExchangeWithOptions(ctx context.Context, qname dnswire.Name, qtype dnswire.Type, opts Options) (*dnswire.Message, error)
}

// ProfiledUpstream is an Upstream that names the vendor profile answering
// behind it. A cache in front of it serves stale data and marks stale answers
// and cached errors as that profile reports them, so that it answers as the
// resolver would alone; a cache in front of any other Upstream answers as
// Cloudflare's profile.
type ProfiledUpstream interface {
	Upstream
	Profile() *resolver.Profile
}

// ResolverUpstream adapts a resolver.Resolver to Upstream.
type ResolverUpstream struct{ R *resolver.Resolver }

// Profile implements ProfiledUpstream.
func (u ResolverUpstream) Profile() *resolver.Profile { return u.R.Profile }

// Exchange implements Upstream.
func (u ResolverUpstream) Exchange(ctx context.Context, qname dnswire.Name, qtype dnswire.Type) (*dnswire.Message, error) {
	return u.R.Resolve(ctx, qname, qtype).Msg, nil
}

// ExchangeWithOptions implements OptionsUpstream, mapping the CD bit and the
// caller-caches bit onto the resolver's query options.
func (u ResolverUpstream) ExchangeWithOptions(ctx context.Context, qname dnswire.Name, qtype dnswire.Type, opts Options) (*dnswire.Message, error) {
	return u.R.ResolveWithOptions(ctx, qname, qtype, resolver.QueryOptions{
		CheckingDisabled: opts.CheckingDisabled,
		CallerCaches:     opts.CallerCaches,
	}).Msg, nil
}

// Exchange routes one exchange through up, honouring opts when the upstream
// supports them.
func Exchange(ctx context.Context, up Upstream, qname dnswire.Name, qtype dnswire.Type, opts Options) (*dnswire.Message, error) {
	if opts != (Options{}) {
		if ou, ok := up.(OptionsUpstream); ok {
			return ou.ExchangeWithOptions(ctx, qname, qtype, opts)
		}
	}
	return up.Exchange(ctx, qname, qtype)
}

// Forwarder is a netsim.Handler proxying to an upstream.
type Forwarder struct{ upstream Upstream }

// New creates a forwarder over up.
func New(up Upstream) *Forwarder { return &Forwarder{upstream: up} }

// HandleDNS implements netsim.Handler.
func (f *Forwarder) HandleDNS(ctx context.Context, q *dnswire.Message) (*dnswire.Message, error) {
	if len(q.Question) != 1 {
		r := q.Reply()
		r.RCode = dnswire.RCodeFormErr
		return r, nil
	}
	question := q.Question[0]

	upctx, cancel := context.WithTimeout(ctx, 5*time.Second)
	defer cancel()
	resp, err := Exchange(upctx, f.upstream, question.Name, question.Type,
		Options{CheckingDisabled: q.CheckingDisabled})
	if err != nil || resp == nil {
		r := q.Reply()
		r.RCode = dnswire.RCodeServFail
		r.AddEDE(uint16(ede.CodeNetworkError), "upstream resolver unreachable")
		return r, nil
	}

	// Re-head the upstream answer for this client: same ID/question, the
	// upstream's RCODE, answer, and its EDE options, forwarded verbatim.
	// The RR slices are copied, not aliased: the upstream may share them
	// with its own cache (a frontend cache sits behind exactly this hop),
	// and a client-side re-head must not be able to corrupt cached
	// messages.
	out := q.Reply()
	out.RCode = resp.RCode
	out.RecursionAvailable = true
	out.AuthenticData = resp.AuthenticData
	out.Answer = append([]dnswire.RR(nil), resp.Answer...)
	out.Authority = append([]dnswire.RR(nil), resp.Authority...)

	if q.OPT != nil {
		for _, e := range resp.EDEs() {
			out.AddEDE(e.InfoCode, e.ExtraText)
		}
	}
	return out, nil
}

var _ netsim.Handler = (*Forwarder)(nil)
