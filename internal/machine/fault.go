package machine

import "fmt"

// FaultKind classifies an abnormal stop of Run or Step. The set is closed:
// every fault the machine or a frontend raises while fetching or executing
// is one of these kinds. Exhausting the step budget is not a fault — the
// program did nothing wrong — and stays a plain error.
type FaultKind uint8

// Fault kinds.
const (
	FaultIllegalInstruction       FaultKind = iota // the word decodes to no instruction of the subset
	FaultBadAddress                                // a fetch, load, store or string read outside mapped memory or the text stream, or a region mapped over another
	FaultJumpOutsideText                           // a branch target outside the frontend's text
	FaultAbsoluteBranch                            // b or bc with AA set
	FaultUnaddressableLink                         // a link branch whose successor has no address (inside a dictionary entry)
	FaultUnsupportedSPR                            // mfspr or mtspr of an SPR other than LR and CTR
	FaultUnknownSyscall                            // sc with an r0 no syscall answers to
	FaultCodewordBeyondDictionary                  // a codeword whose rank the dictionary does not have

	numFaultKinds
)

var faultNames = [numFaultKinds]string{
	"illegal_instruction",
	"bad_address",
	"jump_outside_text",
	"absolute_branch",
	"unaddressable_link",
	"unsupported_spr",
	"unknown_syscall",
	"codeword_beyond_dictionary",
}

func (k FaultKind) String() string {
	if int(k) < len(faultNames) {
		return faultNames[k]
	}
	return "unknown"
}

// faultCounterNames precomputes the counter a Run that ends in each kind
// of fault adds 1 to (see exportRun).
var faultCounterNames = func() (a [numFaultKinds]string) {
	for k := range a {
		a[k] = "machine.faults." + FaultKind(k).String()
	}
	return
}()

// Fault is the error of every abnormal stop, and of a machine whose
// memory regions cannot be mapped: callers match it with errors.As
// instead of parsing text.
type Fault struct {
	Kind FaultKind

	// PC is the fetch address, in the frontend's PC space, of the
	// instruction that faulted (of the fetch, for a fault raised while
	// fetching).
	PC uint32

	// Addr is what the fault names: the data address of a bad access, the
	// target of a bad jump, the SPR number, the syscall number (r0), the
	// codeword rank. For an illegal instruction, an absolute branch and an
	// unaddressable link it equals PC.
	Addr uint32

	// Word is the raw instruction word, 0 for a fault raised while
	// fetching.
	Word uint32

	msg string // the error text, fixed when the fault is raised
}

// Faultf builds a Fault whose Error text is the formatted message. pc may
// be 0 where the raiser does not know it (memory, a frontend's SetPC): the
// executing CPU fills PC and Word in before the fault leaves Run or Step.
func Faultf(kind FaultKind, pc, addr uint32, format string, args ...any) *Fault {
	return &Fault{Kind: kind, PC: pc, Addr: addr, msg: fmt.Sprintf(format, args...)}
}

func (f *Fault) Error() string { return f.msg }

// at attributes err, when it is a Fault, to the instruction word at pc.
func at(err error, pc, word uint32) error {
	if f, ok := err.(*Fault); ok {
		f.PC, f.Word = pc, word
	}
	return err
}
