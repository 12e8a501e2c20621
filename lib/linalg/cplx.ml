type t = Complex.t = { re : float; im : float }

let zero = Complex.zero
let one = Complex.one
let i = Complex.i

let make re im = { re; im }

let add = Complex.add
let sub = Complex.sub
let mul = Complex.mul
let conj = Complex.conj
let scale s { re; im } = { re = s *. re; im = s *. im }

let norm = Complex.norm
let norm2 = Complex.norm2

let i_pow k =
  match ((k mod 4) + 4) mod 4 with
  | 0 -> one
  | 1 -> i
  | 2 -> { re = -1.; im = 0. }
  | _ -> { re = 0.; im = -1. }

let exp_i theta = { re = cos theta; im = sin theta }

let approx_equal ?(eps = 1e-9) a b = norm (sub a b) <= eps

let pp fmt { re; im } = Format.fprintf fmt "%g%+gi" re im
