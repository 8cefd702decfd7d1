package osm

import "fmt"

// TokenID names a resource unit within a token manager's namespace.
// The interpretation is manager-specific: a register number, a pipeline
// stage slot, a reservation-station entry, and so on. Managers are free
// to pack sub-fields (for example a register number plus an "update"
// flag, or a thread tag for multi-threaded models) into the 64 bits.
type TokenID int64

// AnyUnit asks a manager to pick any free unit it controls. Managers
// that control a single token treat AnyUnit and 0 identically.
const AnyUnit TokenID = -1

// AllTokens, used with a Discard primitive, discards every token the
// machine currently holds. It is the usual identifier on reset edges.
const AllTokens TokenID = -2

// Token is a resource granted by a token manager to a machine. A
// machine keeps granted tokens in its token buffer until it releases
// or discards them.
type Token struct {
	// Mgr is the manager that granted the token.
	Mgr TokenManager
	// ID is the resolved identifier of the granted unit. When a
	// machine allocates with AnyUnit, ID records the concrete unit
	// the manager picked.
	ID TokenID
	// Data is an optional manager- or model-specific payload. A
	// register-update token, for example, carries the computed result
	// value back to the register file when released.
	Data uint64
}

func (t Token) String() string {
	if t.Mgr == nil {
		return fmt.Sprintf("token(<nil>:%d)", t.ID)
	}
	return fmt.Sprintf("token(%s:%d)", t.Mgr.Name(), t.ID)
}

// Op enumerates the four primitive transactions of the Λ language.
type Op int

const (
	// OpAllocate requests exclusive ownership of a token.
	OpAllocate Op = iota
	// OpInquire checks the availability of a resource without
	// obtaining its token (non-exclusive access, e.g. register reads).
	OpInquire
	// OpRelease requests to return a held token to its manager.
	OpRelease
	// OpDiscard unconditionally drops a held token; it needs no
	// permission from the manager and always succeeds.
	OpDiscard
)

func (o Op) String() string {
	switch o {
	case OpAllocate:
		return "allocate"
	case OpInquire:
		return "inquire"
	case OpRelease:
		return "release"
	case OpDiscard:
		return "discard"
	}
	return fmt.Sprintf("op(%d)", int(o))
}

// IDFunc computes a token identifier from the state of the requesting
// machine. Identifiers are typically initialized at decode time: the
// machine stores its decoded operation in Machine.Ctx and the IDFunc
// reads source/destination register numbers or unit choices from it.
//
// An identifier function must return the same identifier until the
// machine's next transition: it may depend on the bound operation, but
// not on state that changes while the machine is blocked. Engines rely
// on this and may call it any number of times per try.
type IDFunc func(m *Machine) TokenID

// A Primitive is one conjunct of an edge's guard condition: a single
// token transaction directed at one manager.
type Primitive struct {
	// Op selects which of the four Λ transactions to perform.
	Op Op
	// Mgr is the manager the transaction is directed at.
	Mgr TokenManager
	// ID yields the token identifier to present. Exactly one of ID
	// and FixedID is used: if ID is nil, FixedID is presented.
	ID IDFunc
	// FixedID is the identifier used when ID is nil.
	FixedID TokenID

	// Manager-index cache owned by the event-driven scheduler
	// (director_event.go), valid for one director and scheduler
	// epoch; -1 records an unregistered manager.
	schedDir   *Director
	schedEpoch uint64
	schedIdx   int
}

func (p Primitive) String() string {
	name := "<nil>"
	if p.Mgr != nil {
		name = p.Mgr.Name()
	}
	if p.ID != nil {
		return fmt.Sprintf("%s(%s, dyn)", p.Op, name)
	}
	return fmt.Sprintf("%s(%s, %d)", p.Op, name, p.FixedID)
}

// id resolves the identifier the primitive presents for m.
func (p *Primitive) id(m *Machine) TokenID {
	if p.ID != nil {
		return p.ID(m)
	}
	return p.FixedID
}

// Alloc builds an Allocate primitive with a fixed identifier.
func Alloc(mgr TokenManager, id TokenID) Primitive {
	return Primitive{Op: OpAllocate, Mgr: mgr, FixedID: id}
}

// AllocF builds an Allocate primitive whose identifier is computed
// from the machine at request time.
func AllocF(mgr TokenManager, f IDFunc) Primitive {
	return Primitive{Op: OpAllocate, Mgr: mgr, ID: f}
}

// Inquire builds an Inquire primitive with a fixed identifier.
func Inquire(mgr TokenManager, id TokenID) Primitive {
	return Primitive{Op: OpInquire, Mgr: mgr, FixedID: id}
}

// InquireF builds an Inquire primitive with a computed identifier.
func InquireF(mgr TokenManager, f IDFunc) Primitive {
	return Primitive{Op: OpInquire, Mgr: mgr, ID: f}
}

// Release builds a Release primitive with a fixed identifier. The
// machine must hold a token from mgr with that identifier when the
// edge is evaluated.
func Release(mgr TokenManager, id TokenID) Primitive {
	return Primitive{Op: OpRelease, Mgr: mgr, FixedID: id}
}

// ReleaseF builds a Release primitive with a computed identifier.
func ReleaseF(mgr TokenManager, f IDFunc) Primitive {
	return Primitive{Op: OpRelease, Mgr: mgr, ID: f}
}

// Discard builds a Discard primitive. Use AllTokens to drop the whole
// token buffer (the usual reset behaviour); otherwise the machine's
// held token from mgr with the given identifier is dropped. Discarding
// a token that is not held succeeds and does nothing, so reset edges
// stay valid regardless of how far the operation progressed.
func Discard(mgr TokenManager, id TokenID) Primitive {
	return Primitive{Op: OpDiscard, Mgr: mgr, FixedID: id}
}
