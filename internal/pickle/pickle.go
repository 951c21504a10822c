// Package pickle is the stable public name of PyLite's binary value codec —
// the stand-in for Python's pickle in the paper's workflow. The devUDF run
// harness writes UDF input parameters to an input.bin blob with Dump, and
// the generated prologue loads them back inside the script with
// `pickle.load(open('./input.bin','rb'))` (paper Listing 2).
package pickle

import (
	"repro/internal/core"
	"repro/internal/script"
)

// Dumps serializes a PyLite value.
func Dumps(v script.Value) ([]byte, error) { return script.Marshal(v) }

// Loads deserializes a PyLite value.
func Loads(data []byte) (script.Value, error) { return script.Unmarshal(data) }

// DumpFile serializes v into fs at name (the input.bin of Listing 2).
func DumpFile(fs core.FS, name string, v script.Value) error {
	data, err := script.Marshal(v)
	if err != nil {
		return err
	}
	return fs.WriteFile(name, data)
}

// LoadFile deserializes the value stored in fs at name.
func LoadFile(fs core.FS, name string) (script.Value, error) {
	data, err := fs.ReadFile(name)
	if err != nil {
		return nil, err
	}
	return script.Unmarshal(data)
}
