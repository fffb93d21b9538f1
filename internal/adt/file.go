package adt

import "hybridcc/internal/spec"

// FileInitial is the value a File holds before any Write.
const FileInitial int64 = 0

// fileState is the current value of the file.
type fileState struct{ val string }

// File is the paper's File type (Section 4.3, Table I): Read returns the
// most recently written value; Write replaces it.  Both operations are
// total and deterministic.
type File struct{}

// NewFile returns the File serial specification.
func NewFile() File { return File{} }

// Name implements spec.Spec.
func (File) Name() string { return "File" }

// Init implements spec.Spec.
func (File) Init() spec.State { return fileState{val: Itoa(FileInitial)} }

// Step implements spec.Spec.
func (File) Step(s spec.State, op spec.Op) (spec.State, bool) {
	st := s.(fileState)
	switch op.Name {
	case "Write":
		if op.Res != ResOk {
			return nil, false
		}
		return fileState{val: op.Arg}, true
	case "Read":
		if op.Arg != "" || op.Res != st.val {
			return nil, false
		}
		return st, true
	}
	return nil, false
}

// Responses implements spec.Spec.
func (File) Responses(s spec.State, inv spec.Invocation) []string {
	st := s.(fileState)
	switch inv.Name {
	case "Write":
		return respOk
	case "Read":
		if inv.Arg != "" {
			return nil
		}
		return []string{st.val}
	}
	return nil
}

// ReadResponse implements spec.ReadSpec: Read is the type's pure observer.
func (File) ReadResponse(s spec.State, inv spec.Invocation) (string, bool) {
	if inv.Name != "Read" || inv.Arg != "" {
		return "", false
	}
	return s.(fileState).val, true
}

// ConstantResponse implements spec.ConstantSpec: Write is always Ok.
func (File) ConstantResponse(inv spec.Invocation) (string, bool) { return okIf(inv.Name == "Write") }

// Equal implements spec.Spec.
func (File) Equal(a, b spec.State) bool { return a.(fileState) == b.(fileState) }

// FileValue extracts the current value from a File state.
func FileValue(s spec.State) int64 { return Atoi(s.(fileState).val) }
