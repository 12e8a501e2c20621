(* Order statistics used by every reported timing. *)

(* [percentile sorted p]: nearest-rank percentile of an ascending array
   ([p] in (0, 100]); the value at rank ceil(p/100 * n).  [nan] when
   empty. *)
let percentile sorted p =
  let n = Array.length sorted in
  if n = 0 then nan
  else
    let rank = int_of_float (Float.ceil (p /. 100. *. float_of_int n)) in
    sorted.(max 0 (min (n - 1) (rank - 1)))

let sorted_of_list l =
  let a = Array.of_list l in
  Array.sort compare a;
  a

let median l = percentile (sorted_of_list l) 50.
