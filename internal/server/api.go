package server

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"reflect"
	"strings"

	"indexedrec/internal/jsonwire"
	"indexedrec/ir"
)

// API version prefix for all solve endpoints.
const APIPrefix = "/v1/solve/"

// OrdinaryRequest is the body of POST /v1/solve/ordinary — an ordinary
// system (H = G), an operator spec, and the initial array. Init is raw so
// int64 operators decode without float64 truncation.
type OrdinaryRequest struct {
	System ir.SystemWire   `json:"system"`
	Op     string          `json:"op"`
	Mod    int64           `json:"mod,omitempty"`
	Init   json.RawMessage `json:"init"`
	Opts   ir.OptionsWire  `json:"opts,omitempty"`
}

// OrdinaryResponse mirrors ir.OrdinaryResult on the wire; exactly one of
// ValuesInt/ValuesFloat is set, matching the operator's domain.
type OrdinaryResponse struct {
	ValuesInt   ir.Int64s `json:"values_int,omitempty"`
	ValuesFloat []float64 `json:"values_float,omitempty"`
	// Cells echoes the touched-cell list of a sparse-encoded request:
	// values_int/values_float are then in compact order, with entry i the
	// final value of global cell Cells[i]. Empty for dense requests, whose
	// values tile the whole array.
	Cells     ir.Ints `json:"cells,omitempty"`
	Rounds    int     `json:"rounds"`
	Combines  int64   `json:"combines"`
	ElapsedMs float64 `json:"elapsed_ms"`
}

// GeneralRequest is the body of POST /v1/solve/general — any G, F, H with a
// commutative-monoid operator.
type GeneralRequest struct {
	System ir.SystemWire   `json:"system"`
	Op     string          `json:"op"`
	Mod    int64           `json:"mod,omitempty"`
	Init   json.RawMessage `json:"init"`
	// WithPowers requests the symbolic power traces (the paper's Fig. 5
	// artifact) in the response; they can be large, so default off.
	WithPowers bool           `json:"with_powers,omitempty"`
	Opts       ir.OptionsWire `json:"opts,omitempty"`
}

// GeneralResponse mirrors ir.GeneralResult on the wire.
type GeneralResponse struct {
	ValuesInt   ir.Int64s `json:"values_int,omitempty"`
	ValuesFloat []float64 `json:"values_float,omitempty"`
	// Cells echoes a sparse-encoded request's touched-cell list; values
	// (and power-trace rows) are then in compact order over these global
	// cells. Empty for dense requests.
	Cells     ir.Ints          `json:"cells,omitempty"`
	Powers    [][]ir.PowerTerm `json:"powers,omitempty"`
	CAPRounds int              `json:"cap_rounds"`
	ElapsedMs float64          `json:"elapsed_ms"`
}

// LinearRequest is the body of POST /v1/solve/linear:
// X[g(i)] := a[i]·X[f(i)] + b[i], with Extended selecting the paper's
// X[g] := X[g] + a·X[f] + b rewriting.
type LinearRequest struct {
	M        int            `json:"m"`
	G        ir.Ints        `json:"g"`
	F        ir.Ints        `json:"f"`
	A        []float64      `json:"a"`
	B        []float64      `json:"b"`
	X0       []float64      `json:"x0"`
	Extended bool           `json:"extended,omitempty"`
	Opts     ir.OptionsWire `json:"opts,omitempty"`
}

// MoebiusRequest is the body of POST /v1/solve/moebius — the full
// fractional-linear form X[g] := (a·X[f]+b)/(c·X[f]+d).
type MoebiusRequest struct {
	M    int            `json:"m"`
	G    ir.Ints        `json:"g"`
	F    ir.Ints        `json:"f"`
	A    []float64      `json:"a"`
	B    []float64      `json:"b"`
	C    []float64      `json:"c"`
	D    []float64      `json:"d"`
	X0   []float64      `json:"x0"`
	Opts ir.OptionsWire `json:"opts,omitempty"`
}

// MoebiusResponse is shared by the linear and moebius endpoints. BatchSize
// is always 1, kept for wire compatibility: every request is solved alone.
type MoebiusResponse struct {
	Values    []float64 `json:"values"`
	BatchSize int       `json:"batch_size"`
	ElapsedMs float64   `json:"elapsed_ms"`
}

// Grid2DRequest is the body of POST /v1/solve/grid2d — a 2-D recurrence
// grid solved by anti-diagonal wavefronts over the system's semiring.
type Grid2DRequest struct {
	System ir.Grid2DSystem `json:"system"`
	Opts   ir.OptionsWire  `json:"opts,omitempty"`
}

// Grid2DResponse returns the solved interior grid, row-major Rows×Cols.
type Grid2DResponse struct {
	Values    []float64 `json:"values"`
	Rounds    int       `json:"rounds"`
	Cells     int64     `json:"cells"`
	ElapsedMs float64   `json:"elapsed_ms"`
}

// LoopRequest is the body of POST /v1/solve/loop — a sequential loop in the
// DSL, classified and executed with the matching parallel strategy.
type LoopRequest struct {
	Loop    string               `json:"loop"`
	N       int                  `json:"n,omitempty"`
	Arrays  map[string][]float64 `json:"arrays,omitempty"`
	Scalars map[string]float64   `json:"scalars,omitempty"`
	Opts    ir.OptionsWire       `json:"opts,omitempty"`
}

// LoopResponse returns the classification and the arrays after execution.
type LoopResponse struct {
	Analysis  string               `json:"analysis"`
	Strategy  string               `json:"strategy"`
	Arrays    map[string][]float64 `json:"arrays"`
	ElapsedMs float64              `json:"elapsed_ms"`
}

// ShardPrefix is the worker-role API prefix: coordinators scatter compiled
// plan slices to POST /v1/shard/solve.
const ShardPrefix = "/v1/shard/"

// ShardWire is the JSON form of an ir.Shard.
type ShardWire struct {
	// Lo and Hi bound the half-open slice of the plan's shard domain
	// (chains for the ordinary family, cells otherwise).
	Lo int `json:"lo"`
	Hi int `json:"hi"`
}

// ShardRequest is the body of POST /v1/shard/solve: the system's structure
// (so the worker can compile or cache-load the plan by fingerprint), one
// shard of its domain, and the full PlanData the plan replays against.
// The Möbius family posts its coefficients in A..D/X0 and leaves Op/Init
// empty; ordinary and general post Op/Mod/Init and leave the arrays empty.
type ShardRequest struct {
	// Family names the solver family: "ordinary", "general", "moebius" or
	// "grid2d".
	Family string `json:"family"`
	// System carries the index maps; the Möbius family uses M, G, F with
	// H absent.
	System ir.SystemWire `json:"system"`
	// Shard is the slice of the plan's shard domain to execute.
	Shard ShardWire `json:"shard"`
	// Op, Mod and Init feed ordinary/general replays (see OrdinaryRequest).
	Op   string          `json:"op,omitempty"`
	Mod  int64           `json:"mod,omitempty"`
	Init json.RawMessage `json:"init,omitempty"`
	// A, B, C, D and X0 feed Möbius replays (nil C, D = the affine form).
	A  []float64 `json:"a,omitempty"`
	B  []float64 `json:"b,omitempty"`
	C  []float64 `json:"c,omitempty"`
	D  []float64 `json:"d,omitempty"`
	X0 []float64 `json:"x0,omitempty"`
	// Grid feeds grid2d replays: a contiguous row band of the full grid
	// with its halo boundaries already folded into North/West/NorthWest;
	// Shard records the band's [lo, hi) row range in the original grid and
	// System is ignored.
	Grid *ir.Grid2DSystem `json:"grid,omitempty"`
	// Opts carries procs/deadline/exponent options as elsewhere.
	Opts ir.OptionsWire `json:"opts,omitempty"`
}

// ShardResponse mirrors ir.ShardSolution on the wire, plus timing.
type ShardResponse struct {
	// Shard echoes the executed slice.
	Shard ShardWire `json:"shard"`
	// Cells lists a sparse (ordinary) shard's owned cells, ascending.
	Cells ir.Ints `json:"cells,omitempty"`
	// ValuesInt / ValuesFloat / Values carry the slice values; exactly one
	// is set, as in ir.ShardSolution.
	ValuesInt   ir.Int64s `json:"values_int,omitempty"`
	ValuesFloat []float64 `json:"values_float,omitempty"`
	Values      []float64 `json:"values,omitempty"`
	// ElapsedMs is the worker-side solve time.
	ElapsedMs float64 `json:"elapsed_ms"`
}

// ClusterPrefix is the coordinator's membership API prefix: workers
// self-register at POST /v1/cluster/register, renew their lease at POST
// /v1/cluster/heartbeat, and leave gracefully at POST
// /v1/cluster/deregister; GET /v1/cluster/workers reports the fleet view.
const ClusterPrefix = "/v1/cluster/"

// ClusterTokenHeader carries the shared registration token on the
// membership endpoints when the coordinator was started with one;
// requests without the matching token answer 401.
const ClusterTokenHeader = "X-IR-Cluster-Token"

// RegisterRequest is the body of POST /v1/cluster/register: a worker
// announcing itself to the coordinator.
type RegisterRequest struct {
	// Addr is the address the coordinator should dial the worker on
	// ("host:port" or a full base URL); it is also the membership key.
	Addr string `json:"addr"`
	// Version is the worker's build identification, shown in the fleet
	// view for mixed-fleet diagnosis.
	Version string `json:"version,omitempty"`
}

// RegisterResponse acknowledges a registration with the granted lease.
type RegisterResponse struct {
	// LeaseMs is how long the membership lease lasts; the worker should
	// heartbeat at roughly a third of it.
	LeaseMs int64 `json:"lease_ms"`
}

// MemberRequest is the body of POST /v1/cluster/heartbeat and
// /v1/cluster/deregister: the worker's registered address.
type MemberRequest struct {
	// Addr is the address the member registered under.
	Addr string `json:"addr"`
}

// TenantHeader is the request header naming the tenant for per-tenant
// admission; absent or empty means the default tenant.
const TenantHeader = "X-IR-Tenant"

// VersionResponse is the body of GET /version — build identification for
// mixed-version cluster diagnosis.
type VersionResponse struct {
	// Version is the main module version (or "(devel)" for local builds).
	Version string `json:"version"`
	// Go is the toolchain that built the binary.
	Go string `json:"go"`
	// Revision and Modified identify the VCS state when embedded.
	Revision string `json:"revision,omitempty"`
	Modified bool   `json:"modified,omitempty"`
}

// ErrorResponse is the body of every non-2xx response.
type ErrorResponse struct {
	Error string `json:"error"`
	// Code is the HTTP status, repeated so logs of bodies are self-contained.
	Code int `json:"code"`
}

// intOp and floatOp resolve the endpoints' operator specs through the
// registry that now lives next to the API it serves (ir.IntOpByName /
// ir.FloatOpByName); every registered operator satisfies CommutativeMonoid,
// so one table serves both endpoints (SolveOrdinary only needs the
// Semigroup subset).
func intOp(name string, mod int64) (ir.CommutativeMonoid[int64], error) {
	return ir.IntOpByName(name, mod)
}

func floatOp(name string) (ir.CommutativeMonoid[float64], error) {
	return ir.FloatOpByName(name)
}

// OpNames lists every operator spec the solve endpoints accept, for error
// messages and docs.
func OpNames() []string { return ir.OpNames() }

// DecodeInitInt parses the raw init array as int64s in one pass (through
// ir.Int64s), rejecting non-integral, out-of-range and null elements rather
// than truncating or zeroing them. A null array decodes as empty.
func DecodeInitInt(raw json.RawMessage) ([]int64, error) {
	if len(raw) == 0 {
		return nil, fmt.Errorf("missing \"init\"")
	}
	var vals ir.Int64s
	err := vals.UnmarshalJSON(raw)
	var te *json.UnmarshalTypeError
	if errors.As(err, &te) && te.Type == reflect.TypeFor[int64]() {
		// Every element before the rejected one is an integer literal, so
		// the commas before it count its index.
		i := bytes.Count(raw[:te.Offset], []byte(","))
		return nil, fmt.Errorf("init[%d] = %s is not an int64 (op has integer domain)", i, strings.TrimPrefix(te.Value, "number "))
	}
	if err != nil {
		return nil, fmt.Errorf("bad \"init\": %v", err)
	}
	if vals == nil {
		vals = ir.Int64s{} // callers then report a null init by its length
	}
	return vals, nil
}

// DecodeInitFloat parses the raw init array as float64s in one pass (the
// jsonwire float scanner), rejecting non-finite values up front (the
// solvers would reject them anyway). An array the walk declines — null, a
// non-number element, an out-of-range literal — goes through
// json.Unmarshal, so its value or error is encoding/json's.
func DecodeInitFloat(raw json.RawMessage) ([]float64, error) {
	if len(raw) == 0 {
		return nil, fmt.Errorf("missing \"init\"")
	}
	w := jsonwire.NewWalker(raw)
	out := w.Floats()
	if !w.Done() {
		out = nil
		if err := json.Unmarshal(raw, &out); err != nil {
			return nil, fmt.Errorf("bad \"init\": %v", err)
		}
	}
	for i, v := range out {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return nil, fmt.Errorf("init[%d] = %v is not finite", i, v)
		}
	}
	return out, nil
}
