package tensor

import (
	"fmt"
	"testing"
)

// BenchmarkGEMMSizes sweeps the packed kernels across square sizes and
// reports achieved GFLOP/s (for the int8 path, giga-int-ops/s on the
// same 2*M*N*K count, so the two paths are directly comparable). The
// 512 entry is where the packed f32 kernel was judged against the
// pre-packing register-blocked kernel (≥1.3x on the same machine).
// End-to-end speed is measured by nbhdbench, not here.
func BenchmarkGEMMSizes(b *testing.B) {
	for _, n := range []int{128, 256, 512, 1024} {
		a := MustNew(n, n)
		bb := MustNew(n, n)
		dst := MustNew(n, n)
		for i := range a.Data {
			a.Data[i] = float32(i%17) * 0.25
			bb.Data[i] = float32(i%13) * 0.5
		}
		flops := 2 * float64(n) * float64(n) * float64(n)
		b.Run(fmt.Sprintf("f32-%d", n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if err := MatMulInto(dst, a, bb); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(flops*float64(b.N)/b.Elapsed().Seconds()/1e9, "GFLOP/s")
		})
		qa := &QTensor{Shape: []int{n, n}, Data: make([]int8, n*n), Scale: 1}
		qb := &QTensor{Shape: []int{n, n}, Data: make([]int8, n*n), Scale: 1}
		for i := range qa.Data {
			qa.Data[i] = int8(i%255 - 127)
			qb.Data[i] = int8((i*7)%255 - 127)
		}
		b.Run(fmt.Sprintf("int8-%d", n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if err := QMatMulInto(dst, qa, qb); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(flops*float64(b.N)/b.Elapsed().Seconds()/1e9, "GFLOP/s")
		})
	}
}
