package lang

import (
	"errors"
	"fmt"
	"math"
)

// Env is the runtime environment of a loop: scalar bindings and float64
// arrays. Index expressions must evaluate to integers (within 1e-9).
type Env struct {
	Scalars map[string]float64
	Arrays  map[string][]float64
	// MaxIters, when positive, bounds the iterations of every loop level:
	// its range times the iterations of the levels around it. A level over
	// the bound fails with ErrRange before its body runs or is tabulated.
	MaxIters int
	// outer is the iterations of the levels around the one running, while
	// MaxIters is set.
	outer int
}

// NewEnv returns an empty environment.
func NewEnv() *Env {
	return &Env{Scalars: map[string]float64{}, Arrays: map[string][]float64{}}
}

// Clone deep-copies the environment (arrays included).
func (env *Env) Clone() *Env {
	c := NewEnv()
	c.MaxIters = env.MaxIters
	for k, v := range env.Scalars {
		c.Scalars[k] = v
	}
	for k, v := range env.Arrays {
		c.Arrays[k] = append([]float64(nil), v...)
	}
	return c
}

// ErrEval wraps evaluation failures (unbound names, bad indices).
var ErrEval = errors.New("lang: evaluation error")

// ErrRange reports a loop level with more iterations than Env.MaxIters.
var ErrRange = errors.New("lang: loop range over the iteration limit")

// Eval evaluates an expression in env.
func Eval(e Expr, env *Env) (float64, error) {
	switch x := e.(type) {
	case *Num:
		return x.Val, nil
	case *Var:
		v, ok := env.Scalars[x.Name]
		if !ok {
			return 0, fmt.Errorf("%w: unbound scalar %q", ErrEval, x.Name)
		}
		return v, nil
	case *Index:
		arr, ok := env.Arrays[x.Array]
		if !ok {
			return 0, fmt.Errorf("%w: unbound array %q", ErrEval, x.Array)
		}
		i, err := EvalIndex(x.Idx, env)
		if err != nil {
			return 0, err
		}
		if i < 0 || i >= len(arr) {
			return 0, fmt.Errorf("%w: %s[%d] out of range [0,%d)", ErrEval, x.Array, i, len(arr))
		}
		return arr[i], nil
	case *Bin:
		l, err := Eval(x.L, env)
		if err != nil {
			return 0, err
		}
		r, err := Eval(x.R, env)
		if err != nil {
			return 0, err
		}
		switch x.Op {
		case '+':
			return l + r, nil
		case '-':
			return l - r, nil
		case '*':
			return l * r, nil
		case '/':
			return l / r, nil
		}
		return 0, fmt.Errorf("%w: bad operator %q", ErrEval, x.Op)
	case *Neg:
		v, err := Eval(x.E, env)
		return -v, err
	}
	return 0, fmt.Errorf("%w: unknown expression node %T", ErrEval, e)
}

// EvalIndex evaluates an index expression, requiring an integral value.
func EvalIndex(e Expr, env *Env) (int, error) {
	v, err := Eval(e, env)
	if err != nil {
		return 0, err
	}
	r := math.Round(v)
	if math.Abs(v-r) > 1e-9 {
		return 0, fmt.Errorf("%w: index %v is not an integer", ErrEval, v)
	}
	return int(r), nil
}

// Run interprets the loop sequentially, mutating env — the semantic oracle
// for every compiled execution path.
func Run(l *Loop, env *Env) error {
	lo, hi, err := iterRange(l, env)
	if err != nil {
		return err
	}
	defer env.enter(lo, hi)()
	saved, hadVar := env.Scalars[l.Var]
	defer func() {
		if hadVar {
			env.Scalars[l.Var] = saved
		} else {
			delete(env.Scalars, l.Var)
		}
	}()
	for i := lo; i <= hi; i++ {
		env.Scalars[l.Var] = float64(i)
		for _, st := range l.Body {
			switch s := st.(type) {
			case *Assign:
				if err := execAssign(s, env); err != nil {
					return err
				}
			case *Loop:
				if err := Run(s, env); err != nil {
					return err
				}
			default:
				return fmt.Errorf("%w: unknown statement %T", ErrEval, st)
			}
		}
	}
	return nil
}

func execAssign(st *Assign, env *Env) error {
	arr, ok := env.Arrays[st.Target.Array]
	if !ok {
		return fmt.Errorf("%w: unbound array %q", ErrEval, st.Target.Array)
	}
	gi, err := EvalIndex(st.Target.Idx, env)
	if err != nil {
		return err
	}
	if gi < 0 || gi >= len(arr) {
		return fmt.Errorf("%w: %s[%d] out of range", ErrEval, st.Target.Array, gi)
	}
	v, err := Eval(st.RHS, env)
	if err != nil {
		return err
	}
	arr[gi] = v
	return nil
}
