package expansion

// CertKind classifies how much trust a Result carries: a full exact
// enumeration, a randomized-certified bracket with an explicit failure
// probability, or an uncertified estimate.
type CertKind string

const (
	// CertExact marks a value proved by exhaustive (possibly
	// branch-and-bound-pruned) enumeration. FailureProb is 0 and the CI
	// collapses to the value itself.
	CertExact CertKind = "exact"
	// CertCertified marks a value bracketed by the randomized PPSZ-style
	// solver: the upper end is witnessed by an exactly evaluated set, the
	// lower end holds except with probability ≤ FailureProb.
	CertCertified CertKind = "certified"
	// CertEstimate marks an uncertified sampling estimate (tier three).
	CertEstimate CertKind = "estimate"
)

// Certificate states what a Result's Value is worth. It is carried through
// expansion.Result, the facade, cmd/wexp JSON output, and wexpd response
// bodies. All fields are deterministic functions of (graph, objective,
// options) — in particular of the seed — so certificates are safe to embed
// in byte-level memoized response caches.
type Certificate struct {
	// Kind is exact, certified, or estimate.
	Kind CertKind `json:"kind"`
	// FailureProb bounds the probability that the true value lies below
	// CILow (certified kind only; 0 for exact).
	FailureProb float64 `json:"failure_prob,omitempty"`
	// CILow / CIHigh bracket the value. For certified results CIHigh is a
	// witnessed (exactly evaluated) upper bound and CILow the largest
	// threshold the trial pool rejected; for exact results both equal Value.
	CILow  float64 `json:"ci_low,omitempty"`
	CIHigh float64 `json:"ci_high,omitempty"`
	// Trials counts randomized trials executed (0 for exact). Deterministic
	// at any worker count: the trial plan depends only on the instance and
	// options, never on scheduling.
	Trials int `json:"trials,omitempty"`
}
