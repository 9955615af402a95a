package catalog

import (
	"math"
	"strconv"
)

// TPCDScale scales the TPC-D table cardinalities; 1.0 corresponds to the
// paper's ~1GB database.
//
// TPCD builds the TPC-D benchmark schema (the predecessor of TPC-H) with
// synthetic Zipf-distributed attribute value frequencies, using the paper's
// skew parameter θ=1 for non-key attributes. Values of every column are
// identified with their frequency ranks (domain [1, Distinct]); see Column.
func TPCD(scale float64) *Catalog {
	n := func(base int) int {
		v := int(float64(base) * scale)
		if v < 1 {
			v = 1
		}
		return v
	}
	const theta = 1.0 // paper: "Zipf-like distribution, using θ=1"

	region := NewTable("region", 5, []Column{
		{Name: "r_regionkey", Type: TypeInt, Distinct: 5, Width: 4},
		{Name: "r_name", Type: TypeString, Distinct: 5, Width: 12},
		{Name: "r_comment", Type: TypeString, Distinct: 5, Width: 80},
	})
	nation := NewTable("nation", 25, []Column{
		{Name: "n_nationkey", Type: TypeInt, Distinct: 25, Width: 4},
		{Name: "n_name", Type: TypeString, Distinct: 25, Width: 16},
		{Name: "n_regionkey", Type: TypeInt, Distinct: 5, Width: 4},
		{Name: "n_comment", Type: TypeString, Distinct: 25, Width: 80},
	})
	supplier := NewTable("supplier", n(10_000), []Column{
		{Name: "s_suppkey", Type: TypeInt, Distinct: n(10_000), Width: 4},
		{Name: "s_name", Type: TypeString, Distinct: n(10_000), Width: 18},
		{Name: "s_address", Type: TypeString, Distinct: n(10_000), Width: 24},
		{Name: "s_nationkey", Type: TypeInt, Distinct: 25, Width: 4, Skew: theta},
		{Name: "s_phone", Type: TypeString, Distinct: n(10_000), Width: 15},
		{Name: "s_acctbal", Type: TypeFloat, Distinct: n(9_000), Width: 8, Skew: theta},
		{Name: "s_comment", Type: TypeString, Distinct: n(10_000), Width: 60},
	})
	customer := NewTable("customer", n(150_000), []Column{
		{Name: "c_custkey", Type: TypeInt, Distinct: n(150_000), Width: 4},
		{Name: "c_name", Type: TypeString, Distinct: n(150_000), Width: 18},
		{Name: "c_address", Type: TypeString, Distinct: n(150_000), Width: 24},
		{Name: "c_nationkey", Type: TypeInt, Distinct: 25, Width: 4, Skew: theta},
		{Name: "c_phone", Type: TypeString, Distinct: n(150_000), Width: 15},
		{Name: "c_acctbal", Type: TypeFloat, Distinct: n(90_000), Width: 8, Skew: theta},
		{Name: "c_mktsegment", Type: TypeString, Distinct: 5, Width: 10, Skew: theta},
		{Name: "c_comment", Type: TypeString, Distinct: n(150_000), Width: 70},
	})
	part := NewTable("part", n(200_000), []Column{
		{Name: "p_partkey", Type: TypeInt, Distinct: n(200_000), Width: 4},
		{Name: "p_name", Type: TypeString, Distinct: n(200_000), Width: 32},
		{Name: "p_mfgr", Type: TypeString, Distinct: 5, Width: 14, Skew: theta},
		{Name: "p_brand", Type: TypeString, Distinct: 25, Width: 10, Skew: theta},
		{Name: "p_type", Type: TypeString, Distinct: 150, Width: 20, Skew: theta},
		{Name: "p_size", Type: TypeInt, Distinct: 50, Width: 4, Skew: theta},
		{Name: "p_container", Type: TypeString, Distinct: 40, Width: 10, Skew: theta},
		{Name: "p_retailprice", Type: TypeFloat, Distinct: n(20_000), Width: 8, Skew: theta},
		{Name: "p_comment", Type: TypeString, Distinct: n(100_000), Width: 14},
	})
	partsupp := NewTable("partsupp", n(800_000), []Column{
		{Name: "ps_partkey", Type: TypeInt, Distinct: n(200_000), Width: 4},
		{Name: "ps_suppkey", Type: TypeInt, Distinct: n(10_000), Width: 4},
		{Name: "ps_availqty", Type: TypeInt, Distinct: 9_999, Width: 4, Skew: theta},
		{Name: "ps_supplycost", Type: TypeFloat, Distinct: n(100_000), Width: 8, Skew: theta},
		{Name: "ps_comment", Type: TypeString, Distinct: n(800_000), Width: 120},
	})
	orders := NewTable("orders", n(1_500_000), []Column{
		{Name: "o_orderkey", Type: TypeInt, Distinct: n(1_500_000), Width: 4},
		{Name: "o_custkey", Type: TypeInt, Distinct: n(100_000), Width: 4, Skew: theta},
		{Name: "o_orderstatus", Type: TypeString, Distinct: 3, Width: 1, Skew: theta},
		{Name: "o_totalprice", Type: TypeFloat, Distinct: n(1_000_000), Width: 8, Skew: theta},
		{Name: "o_orderdate", Type: TypeDate, Distinct: 2_406, Width: 4, Skew: theta},
		{Name: "o_orderpriority", Type: TypeString, Distinct: 5, Width: 15, Skew: theta},
		{Name: "o_clerk", Type: TypeString, Distinct: n(1_000), Width: 15, Skew: theta},
		{Name: "o_shippriority", Type: TypeInt, Distinct: 1, Width: 4},
		{Name: "o_comment", Type: TypeString, Distinct: n(1_400_000), Width: 50},
	})
	lineitem := NewTable("lineitem", n(6_000_000), []Column{
		{Name: "l_orderkey", Type: TypeInt, Distinct: n(1_500_000), Width: 4},
		{Name: "l_partkey", Type: TypeInt, Distinct: n(200_000), Width: 4, Skew: theta},
		{Name: "l_suppkey", Type: TypeInt, Distinct: n(10_000), Width: 4, Skew: theta},
		{Name: "l_linenumber", Type: TypeInt, Distinct: 7, Width: 4},
		{Name: "l_quantity", Type: TypeInt, Distinct: 50, Width: 4, Skew: theta},
		{Name: "l_extendedprice", Type: TypeFloat, Distinct: n(1_000_000), Width: 8, Skew: theta},
		{Name: "l_discount", Type: TypeFloat, Distinct: 11, Width: 8, Skew: theta},
		{Name: "l_tax", Type: TypeFloat, Distinct: 9, Width: 8, Skew: theta},
		{Name: "l_returnflag", Type: TypeString, Distinct: 3, Width: 1, Skew: theta},
		{Name: "l_linestatus", Type: TypeString, Distinct: 2, Width: 1, Skew: theta},
		{Name: "l_shipdate", Type: TypeDate, Distinct: 2_526, Width: 4, Skew: theta},
		{Name: "l_commitdate", Type: TypeDate, Distinct: 2_466, Width: 4, Skew: theta},
		{Name: "l_receiptdate", Type: TypeDate, Distinct: 2_554, Width: 4, Skew: theta},
		{Name: "l_shipinstruct", Type: TypeString, Distinct: 4, Width: 25, Skew: theta},
		{Name: "l_shipmode", Type: TypeString, Distinct: 7, Width: 10, Skew: theta},
		{Name: "l_comment", Type: TypeString, Distinct: n(4_000_000), Width: 27},
	})

	return New(region, nation, supplier, customer, part, partsupp, orders, lineitem)
}

// TPCDForeignKeys lists the schema's join edges (child column → parent
// column) used by the workload generator and view enumeration.
var TPCDForeignKeys = [][4]string{
	{"nation", "n_regionkey", "region", "r_regionkey"},
	{"supplier", "s_nationkey", "nation", "n_nationkey"},
	{"customer", "c_nationkey", "nation", "n_nationkey"},
	{"partsupp", "ps_partkey", "part", "p_partkey"},
	{"partsupp", "ps_suppkey", "supplier", "s_suppkey"},
	{"orders", "o_custkey", "customer", "c_custkey"},
	{"lineitem", "l_orderkey", "orders", "o_orderkey"},
	{"lineitem", "l_partkey", "part", "p_partkey"},
	{"lineitem", "l_suppkey", "supplier", "s_suppkey"},
}

// StringValue renders rank r of a string column as a literal value; the
// trailing rank digits make the mapping invertible for selectivity
// estimation (see RankOfString).
func StringValue(prefix string, rank int) string {
	return prefix + "#" + strconv.Itoa(rank)
}

// RankOfString inverts StringValue: it extracts the frequency rank encoded
// in a generated string value (with or without surrounding quotes). It
// returns 0 when the string carries no rank.
func RankOfString(s string) int {
	if len(s) >= 2 && s[0] == '\'' && s[len(s)-1] == '\'' {
		s = s[1 : len(s)-1]
	}
	i := len(s)
	for i > 0 && s[i-1] >= '0' && s[i-1] <= '9' {
		i--
	}
	if i == len(s) || i < 2 || s[i-1] != '#' {
		return 0
	}
	// s[i:] is all digits, so parsing fails only on overflow (strconv.Atoi
	// would allocate its error; the what-if probe calls this per
	// predicate).
	r := 0
	for ; i < len(s); i++ {
		d := int(s[i] - '0')
		if r > (math.MaxInt-d)/10 {
			return 0
		}
		r = r*10 + d
	}
	return r
}
