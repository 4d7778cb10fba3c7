package tensor

import "fmt"

// MatVec computes out[r] = Σ_q w[r*stride+q]·x[q] for every r < len(out):
// the leading len(x) entries of each stride-long row of w against x (a
// stride above len(x) skips trailing per-row entries such as a bias).
//
// Each out[r] is summed left to right from +0, exactly as
// w[r*stride:][:len(x)].Dot(x) sums it. Four rows share one pass over x with
// one accumulator each, so their add chains overlap instead of serialising;
// a trailing block of fewer than four rows runs row by row.
//
//hetlint:hotpath
func MatVec(out, w Vector, stride int, x Vector) {
	n, rows := len(x), len(out)
	if n > stride || rows > 0 && len(w) < (rows-1)*stride+n {
		badShape("MatVec", rows, stride, len(w), n)
	}
	r := 0
	for ; r+4 <= rows; r += 4 {
		w0 := w[r*stride:][:n]
		w1 := w[(r+1)*stride:][:n]
		w2 := w[(r+2)*stride:][:n]
		w3 := w[(r+3)*stride:][:n]
		var s0, s1, s2, s3 float64
		for q, xq := range x {
			s0 += w0[q] * xq
			s1 += w1[q] * xq
			s2 += w2[q] * xq
			s3 += w3[q] * xq
		}
		out[r], out[r+1], out[r+2], out[r+3] = s0, s1, s2, s3
	}
	for ; r < rows; r++ {
		wr := w[r*stride:][:n]
		var s float64
		for q, xq := range x {
			s += wr[q] * xq
		}
		out[r] = s
	}
}

// AddOuter accumulates a batch of outer products into g:
//
//	g[r*stride+q] += Σ_s a[s*rows+r]·x[s*cols+q]   (r < rows, q < cols)
//
// where a holds one rows-long coefficient vector per sample and x one
// cols-long input per sample, both sample-major. Each element adds its
// products to the value already in g one at a time in sample order — exactly
// the sum the per-sample loop `g[r*stride:][:cols].AXPY(a[s*rows+r], x_s)`
// leaves, so a zeroed g sums from +0, and splitting the samples across
// consecutive calls changes nothing. Eight neighbouring elements of a row
// of g are carried in registers across the sample loop and stored once (eight
// independent add chains, no re-read of g per sample); the up to seven
// trailing columns that do not fill a tile are summed one element at a time.
//
//hetlint:hotpath
func AddOuter(g Vector, stride int, a Vector, rows int, x Vector, cols int) {
	if rows < 1 || cols < 1 || cols > stride || len(a)%rows != 0 || len(x)%cols != 0 ||
		len(a)/rows != len(x)/cols || len(g) < (rows-1)*stride+cols {
		badShape("AddOuter", rows, stride, len(g), cols)
	}
	n, tiled := len(a)/rows, cols&^7
	for r := 0; r < rows; r++ {
		gr := g[r*stride:][:cols]
		for q := 0; q < tiled; q += 8 {
			t := gr[q : q+8 : q+8]
			c0, c1, c2, c3, c4, c5, c6, c7 := t[0], t[1], t[2], t[3], t[4], t[5], t[6], t[7]
			ia, ix := r, q
			for s := 0; s < n; s++ {
				as := a[ia]
				xs := x[ix : ix+8 : ix+8]
				c0 += as * xs[0]
				c1 += as * xs[1]
				c2 += as * xs[2]
				c3 += as * xs[3]
				c4 += as * xs[4]
				c5 += as * xs[5]
				c6 += as * xs[6]
				c7 += as * xs[7]
				ia += rows
				ix += cols
			}
			t[0], t[1], t[2], t[3], t[4], t[5], t[6], t[7] = c0, c1, c2, c3, c4, c5, c6, c7
		}
		for q := tiled; q < cols; q++ {
			c := gr[q]
			for s := 0; s < n; s++ {
				c += a[s*rows+r] * x[s*cols+q]
			}
			gr[q] = c
		}
	}
}

func badShape(kernel string, rows, stride, backing, cols int) {
	panic(fmt.Sprintf("tensor: %s shape mismatch (rows %d, stride %d, backing %d, cols %d)", kernel, rows, stride, backing, cols))
}
