package server

import (
	"errors"
	"fmt"
	"math"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"time"

	"github.com/chrec/rat/internal/telemetry"
	"github.com/chrec/rat/internal/tenant"
)

// tenancy is the multi-tenant admission layer: API-key identity,
// per-tenant token-bucket quotas and concurrency caps, and per-tenant
// RED metrics. It sits in the middleware in front of the per-endpoint
// admission semaphores, so a tenant over its quota is refused before
// it can hold an admission slot on any endpoint. A Server without a
// tenant registry has no tenancy layer at all and its request path is
// byte-identical to the pre-tenancy server.
type tenancy struct {
	reg         *tenant.Registry
	exploreCost float64

	metrics *telemetry.Registry
	// rejectAuth is the one rejection counter whose tenant label is the
	// reserved "unknown": requests whose key resolves to no tenant.
	rejectAuth *telemetry.Counter

	mu     sync.RWMutex
	byName map[string]*tenantStat
}

// tenantStat holds one tenant's pre-created metric handles. The label
// set is bounded: stats exist only for names in the validated tenant
// config (plus the reserved "unknown" for auth failures), never for
// raw request input.
type tenantStat struct {
	requests    *telemetry.Counter
	rejectQuota *telemetry.Counter
	rejectConc  *telemetry.Counter
	seconds     *telemetry.Histogram
}

// newTenancy builds the layer over a non-nil tenant registry.
func newTenancy(metrics *telemetry.Registry, reg *tenant.Registry, exploreCost float64) *tenancy {
	t := &tenancy{
		reg:         reg,
		exploreCost: exploreCost,
		metrics:     metrics,
		// The "unknown" tenant is a reserved literal, not request input.
		rejectAuth: metrics.Counter(`rat_tenant_rejections_total{reason="auth",tenant="unknown"}`),
		byName:     make(map[string]*tenantStat),
	}
	for _, name := range reg.Names() {
		t.byName[name] = t.newStat(name)
	}
	return t
}

// newStat creates the metric handles for one configured tenant name.
// The name has passed tenant.ValidateName, so it cannot break the
// exposition format or blow up the label cardinality.
func (t *tenancy) newStat(name string) *tenantStat {
	return &tenantStat{
		//rat:bounded-labels tenant names come from the validated -tenants config, never request input
		requests: t.metrics.Counter(fmt.Sprintf(`rat_tenant_requests_total{tenant="%s"}`, name)),
		//rat:bounded-labels tenant names come from the validated -tenants config, never request input
		rejectQuota: t.metrics.Counter(fmt.Sprintf(`rat_tenant_rejections_total{reason="quota",tenant="%s"}`, name)),
		//rat:bounded-labels tenant names come from the validated -tenants config, never request input
		rejectConc: t.metrics.Counter(fmt.Sprintf(`rat_tenant_rejections_total{reason="concurrency",tenant="%s"}`, name)),
		//rat:bounded-labels tenant names come from the validated -tenants config, never request input
		seconds: t.metrics.Histogram(fmt.Sprintf(`rat_tenant_request_seconds{tenant="%s"}`, name), requestSecondsBounds),
	}
}

// stat returns the metric handles for a configured tenant name,
// creating them on first use after a reload introduced the name.
func (t *tenancy) stat(name string) *tenantStat {
	t.mu.RLock()
	st, ok := t.byName[name]
	t.mu.RUnlock()
	if ok {
		return st
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if st, ok := t.byName[name]; ok {
		return st
	}
	st = t.newStat(name)
	t.byName[name] = st
	return st
}

// apiKey extracts the request's API key: "Authorization: Bearer
// <key>" first, the X-Rat-Key header as the fallback.
func apiKey(r *http.Request) string {
	if h := r.Header.Get("Authorization"); len(h) > 7 && strings.EqualFold(h[:7], "Bearer ") {
		return strings.TrimSpace(h[7:])
	}
	return r.Header.Get("X-Rat-Key")
}

// tokenCost is the bucket charge for admitting one request of the
// given endpoint class. Batch requests are charged 1 here and topped
// up per extra worksheet after decode (the count is not known before
// the body is read).
func (t *tenancy) tokenCost(ep endpointClass) float64 {
	if ep == epExplore {
		return t.exploreCost
	}
	return 1
}

// admit authenticates and rate-limits one API request at time now. On
// success it marks sw with the tenant (the middleware releases the
// concurrency slot and records latency when the request finishes) and
// returns true. On refusal it writes the full response — 401 for an
// unknown key, 429 + Retry-After for an exhausted quota or
// concurrency cap — records the rejection, and returns false.
func (t *tenancy) admit(sw *statusWriter, r *http.Request, ep endpointClass, now time.Time) bool {
	member, ok := t.reg.Lookup(apiKey(r))
	if !ok {
		t.rejectAuth.Inc()
		sw.Header().Set("WWW-Authenticate", `Bearer realm="rat"`)
		writeError(sw, http.StatusUnauthorized,
			errors.New("unknown or missing API key (Authorization: Bearer or X-Rat-Key)"))
		return false
	}
	st := t.stat(member.Name)
	if !t.charge(sw, member, st, t.tokenCost(ep), now) {
		return false
	}
	if !member.AcquireSlot() {
		st.rejectConc.Inc()
		sw.Header().Set("Retry-After", "1")
		writeError(sw, http.StatusTooManyRequests,
			fmt.Errorf("tenant %q is at its max_inflight concurrency cap", member.Name))
		return false
	}
	st.requests.Inc()
	sw.member = member
	sw.tstat = st
	return true
}

// finish closes out an admitted tenant request: the concurrency slot
// comes back and the latency lands in the tenant's histogram. Called
// from the middleware's deferred block, so it runs on the panic path
// too — a dying handler cannot leak a tenant slot.
func (t *tenancy) finish(sw *statusWriter, elapsed time.Duration) {
	sw.member.ReleaseSlot()
	sw.tstat.seconds.Observe(elapsed.Seconds())
}

// retryAfterSeconds renders a refill wait as a Retry-After value:
// whole seconds, rounded up so the advertised instant is never before
// the bucket can actually grant, floored at 1 (the header's smallest
// useful value).
func retryAfterSeconds(d time.Duration) int {
	s := int(math.Ceil(d.Seconds()))
	if s < 1 {
		s = 1
	}
	return s
}

// charge takes cost tokens from the member's bucket at time now. A
// tenant over its quota is refused: the rejection is counted and charge
// answers 429 with a Retry-After derived from the bucket's actual
// refill time rather than a fixed guess, then returns false.
func (t *tenancy) charge(w http.ResponseWriter, member *tenant.Member, st *tenantStat, cost float64, now time.Time) bool {
	ok, retry := member.Bucket().Take(now, cost)
	if !ok {
		st.rejectQuota.Inc()
		w.Header().Set("Retry-After", strconv.Itoa(retryAfterSeconds(retry)))
		writeError(w, http.StatusTooManyRequests,
			fmt.Errorf("tenant %q is over its request quota; retry after the indicated delay", member.Name))
	}
	return ok
}
