package core

// ContractCase is one bound-contract input, exported for the read-path
// sweep in package core_test, which reaches the stream readers.
type ContractCase struct {
	Name string
	Data []float32
	EB   float64
}

// ContractCases returns the bound-contract generators' fields on
// ContractDims.
func ContractCases() []ContractCase {
	var out []ContractCase
	for _, c := range contractCases() {
		out = append(out, ContractCase{Name: c.name, Data: c.data, EB: c.eb})
	}
	return out
}

var (
	ContractDims  = contractDims
	CheckContract = checkContract
)
