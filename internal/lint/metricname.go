package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"strconv"
	"strings"
)

// Metric names registered with the telemetry registry end up in the
// Prometheus text exposition that telemetry.ValidateProm (and every
// real scraper) parses. The registry sanitizes legacy dotted names
// ("server.cache_hits" exports as server_cache_hits), but nothing rescues
// a malformed label block or a name that sanitizes into collision —
// those fail at scrape time, on a dashboard, far from the code that
// minted them. This check moves that failure to lint time: every
// string literal passed to Registry.Counter/Gauge/Histogram
// must satisfy the same grammar ValidateProm enforces, extended with
// '.' as the accepted legacy separator.
//
// Accepted shapes:
//
//	reg.Counter("server.cache_hits")                    dotted legacy
//	reg.Gauge("rat_inflight")                           plain
//	reg.Histogram(`rat_request_seconds{endpoint="x"}`)  inline labels
//	reg.Counter("server.admitted." + endpoint)          literal prefix
//	reg.Counter(fmt.Sprintf(`m{code="%d"}`, code))      format literal
//
// Dynamic parts (non-literal operands, %-verbs) are assumed valid;
// the literal text around them must still parse.
//
// A dynamic part inside a {label="..."} block is a second, distinct
// hazard: a label VALUE spliced in at runtime. Fed request input, that
// is an unbounded label-cardinality explosion — every distinct value
// mints a new time series, and a hostile client can mint millions.
// Such registrations must carry //rat:bounded-labels <reason> on (or
// directly above) the line, asserting the value set is provably
// bounded (a fixed enum, a validated config key set — never raw
// request input). Dynamic parts in the family name, before any '{',
// are exempt: they vary the metric name, not a label value.

// registryMethods are the telemetry.Registry constructors whose first
// argument is a metric name.
var registryMethods = map[string]bool{
	"Counter": true, "Gauge": true, "Histogram": true,
}

var analyzerMetricname = &Analyzer{
	Name: "metricname",
	Doc:  "metric names passed to the telemetry registry must satisfy the Prometheus exposition grammar (telemetry.ValidateProm), so bad names fail at lint time, not scrape time",
	Run:  runMetricname,
}

func runMetricname(p *Package) []Diagnostic {
	var out []Diagnostic
	for _, f := range p.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok || len(call.Args) == 0 {
				return true
			}
			fn := p.calleeFunc(call)
			if fn == nil || fn.Pkg() == nil || !registryMethods[fn.Name()] {
				return true
			}
			if !strings.HasSuffix(fn.Pkg().Path(), "internal/telemetry") {
				return true
			}
			sig, isSig := fn.Type().(*types.Signature)
			if !isSig || sig.Recv() == nil || !strings.HasSuffix(sig.Recv().Type().String(), "telemetry.Registry") {
				return true
			}
			pos := p.pos(call.Args[0])
			if dynamicLabelValue(call.Args[0]) && !p.dirs.allowedAt(pos, DirBoundedLabels) {
				out = append(out, diag("metricname", pos,
					"dynamic label value in metric registration: every distinct value mints a time series; annotate with //rat:%s <reason> only if the value set is provably bounded (fixed enum or validated config, never request input)", DirBoundedLabels))
			}
			name, complete, ok := literalMetricName(call.Args[0])
			if !ok {
				return true // fully dynamic name: nothing to check statically
			}
			if err := ValidateMetricName(name, complete); err != nil {
				out = append(out, diag("metricname", pos,
					"metric name %q will not survive Prometheus exposition: %v", name, err))
			}
			return true
		})
	}
	return out
}

// literalMetricName extracts the statically known text of a metric
// name expression. complete is true when the whole name is literal
// (so the label-block grammar can be enforced end to end), false when
// dynamic parts were elided (only the literal text is checked).
func literalMetricName(e ast.Expr) (name string, complete, ok bool) {
	switch v := ast.Unparen(e).(type) {
	case *ast.BasicLit:
		if v.Kind != token.STRING {
			return "", false, false
		}
		s, err := strconv.Unquote(v.Value)
		if err != nil {
			return "", false, false
		}
		return s, true, true
	case *ast.BinaryExpr:
		if v.Op != token.ADD {
			return "", false, false
		}
		left, lcomplete, lok := literalMetricName(v.X)
		if !lok {
			return "", false, false
		}
		right, rcomplete, rok := literalMetricName(v.Y)
		if !rok {
			// Dynamic suffix: validate the literal prefix only.
			return left, false, true
		}
		return left + right, lcomplete && rcomplete, true
	case *ast.CallExpr:
		// fmt.Sprintf("...", args): substitute every verb with a
		// placeholder that is valid in both name and label positions.
		if sel, isSel := v.Fun.(*ast.SelectorExpr); isSel && sel.Sel.Name == "Sprintf" && len(v.Args) > 0 {
			if lit, isLit := ast.Unparen(v.Args[0]).(*ast.BasicLit); isLit && lit.Kind == token.STRING {
				s, err := strconv.Unquote(lit.Value)
				if err != nil {
					return "", false, false
				}
				return substituteVerbs(s), true, true
			}
		}
		return "", false, false
	default:
		return "", false, false
	}
}

// dynamicLabelValue reports whether a metric-name expression splices a
// runtime value inside a {label="..."} block — a %-verb after a '{' in
// a Sprintf format, or a non-literal concat operand once a literal has
// opened the block. Dynamic parts before any '{' only vary the family
// name and are not flagged.
func dynamicLabelValue(e ast.Expr) bool {
	inBlock := false
	return scanDynamicLabels(e, &inBlock)
}

// scanDynamicLabels walks a name expression left to right, tracking
// whether the literal text seen so far has opened a label block.
func scanDynamicLabels(e ast.Expr, inBlock *bool) bool {
	switch v := ast.Unparen(e).(type) {
	case *ast.BasicLit:
		if v.Kind != token.STRING {
			return *inBlock
		}
		s, err := strconv.Unquote(v.Value)
		if err != nil {
			return false
		}
		if strings.IndexByte(s, '{') >= 0 {
			*inBlock = true
		}
		return false
	case *ast.BinaryExpr:
		if v.Op != token.ADD {
			return *inBlock
		}
		return scanDynamicLabels(v.X, inBlock) || scanDynamicLabels(v.Y, inBlock)
	case *ast.CallExpr:
		if sel, isSel := v.Fun.(*ast.SelectorExpr); isSel && sel.Sel.Name == "Sprintf" && len(v.Args) > 0 {
			if lit, isLit := ast.Unparen(v.Args[0]).(*ast.BasicLit); isLit && lit.Kind == token.STRING {
				if s, err := strconv.Unquote(lit.Value); err == nil {
					return formatHasLabelVerb(s, inBlock)
				}
			}
		}
		return *inBlock
	default:
		// Any other dynamic operand is a label value iff a block is open.
		return *inBlock
	}
}

// formatHasLabelVerb scans a Sprintf format string and reports a
// %-verb (other than the literal %%) inside a label block.
func formatHasLabelVerb(format string, inBlock *bool) bool {
	for i := 0; i < len(format); i++ {
		switch format[i] {
		case '{':
			*inBlock = true
		case '%':
			if i+1 < len(format) && format[i+1] == '%' {
				i++
				continue
			}
			if *inBlock {
				return true
			}
		}
	}
	return false
}

// substituteVerbs replaces %-verbs in a Sprintf format with "0", a
// stand-in valid anywhere a dynamic value may legally appear.
func substituteVerbs(format string) string {
	var b strings.Builder
	for i := 0; i < len(format); i++ {
		c := format[i]
		if c != '%' {
			b.WriteByte(c)
			continue
		}
		i++
		if i < len(format) && format[i] == '%' {
			b.WriteByte('%')
			continue
		}
		for i < len(format) {
			v := format[i]
			if v >= 'a' && v <= 'z' || v >= 'A' && v <= 'Z' {
				break
			}
			i++ // flags, width, precision
		}
		b.WriteByte('0')
	}
	return b.String()
}

// ValidateMetricName enforces the exposition grammar on a (possibly
// partial) metric name: family of [a-zA-Z_:] then [a-zA-Z0-9_:.]
// (dots are the registry's accepted legacy separator — they sanitize
// deterministically to '_'), then an optional {label="value",...}
// block with unique, well-formed labels. When complete is false the
// name is a literal prefix of a dynamic name and only the family
// grammar is checked. Exported so tests can pin this grammar to the
// scrape-side oracle, telemetry.ValidateProm: every name this accepts
// must survive a real exposition round trip.
func ValidateMetricName(name string, complete bool) error {
	if name == "" {
		return fmt.Errorf("empty name")
	}
	family, rest := name, ""
	if i := strings.IndexByte(name, '{'); i >= 0 {
		family, rest = name[:i], name[i:]
	}
	if family == "" {
		return fmt.Errorf("empty family before label block")
	}
	for i := 0; i < len(family); i++ {
		c := family[i]
		letter := c == '_' || c == ':' || c >= 'a' && c <= 'z' || c >= 'A' && c <= 'Z'
		if i == 0 && !letter {
			return fmt.Errorf("name must start with [a-zA-Z_:], got %q", c)
		}
		if !letter && c != '.' && !(c >= '0' && c <= '9') {
			return fmt.Errorf("invalid character %q in name", c)
		}
	}
	if rest == "" {
		return nil
	}
	if !complete {
		// A dynamic tail inside a label block can't be checked here.
		return nil
	}
	if !strings.HasSuffix(rest, "}") {
		return fmt.Errorf("label block does not end with '}'")
	}
	return validateLabelBlock(rest[1 : len(rest)-1])
}

// validateLabelBlock parses `k1="v1",k2="v2"` with the exposition
// escapes (\\, \", \n) and rejects duplicate label names.
func validateLabelBlock(s string) error {
	seen := map[string]bool{}
	i := 0
	for i < len(s) {
		start := i
		for i < len(s) && isLabelNameChar(s[i], i == start) {
			i++
		}
		if i == start {
			return fmt.Errorf("empty label name at %q", s[start:])
		}
		key := s[start:i]
		if seen[key] {
			return fmt.Errorf("duplicate label %q", key)
		}
		seen[key] = true
		if i >= len(s) || s[i] != '=' {
			return fmt.Errorf("label %q missing '='", key)
		}
		i++
		if i >= len(s) || s[i] != '"' {
			return fmt.Errorf("label %q value not quoted", key)
		}
		i++
		closed := false
		for i < len(s) {
			switch s[i] {
			case '\\':
				if i+1 >= len(s) {
					return fmt.Errorf("dangling escape in label %q", key)
				}
				switch s[i+1] {
				case '\\', '"', 'n':
				default:
					return fmt.Errorf("bad escape \\%c in label %q", s[i+1], key)
				}
				i += 2
				continue
			case '"':
				closed = true
			}
			i++
			if closed {
				break
			}
		}
		if !closed {
			return fmt.Errorf("unterminated value for label %q", key)
		}
		if i < len(s) {
			if s[i] != ',' {
				return fmt.Errorf("expected ',' between labels, got %q", s[i:])
			}
			i++
			if i == len(s) {
				return fmt.Errorf("trailing ',' in label block")
			}
		}
	}
	if len(seen) == 0 {
		return fmt.Errorf("empty label block")
	}
	return nil
}

func isLabelNameChar(c byte, first bool) bool {
	if c == '_' || c >= 'a' && c <= 'z' || c >= 'A' && c <= 'Z' {
		return true
	}
	return !first && c >= '0' && c <= '9'
}
