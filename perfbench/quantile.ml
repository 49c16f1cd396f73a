let sorted samples =
  let a = Array.copy samples in
  Array.sort Float.compare a;
  a

(* Nearest rank: the smallest sample with at least [p] of the samples at
   or below it. *)
let rank ~p n = max 1 (int_of_float (Float.ceil (p *. float_of_int n)))

let nearest ~p samples =
  let n = Array.length samples in
  if n = 0 then invalid_arg "Quantile.nearest: no samples";
  (sorted samples).(rank ~p n - 1)

let median samples =
  let n = Array.length samples in
  if n = 0 then invalid_arg "Quantile.median: no samples";
  let a = sorted samples in
  if n mod 2 = 1 then a.(n / 2) else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.

let min_beyond = 10
let beyond ~p n = n - rank ~p n

let tail ~p samples =
  let n = Array.length samples in
  if n = 0 || beyond ~p n < min_beyond then None else Some (nearest ~p samples)

let mean samples =
  let n = Array.length samples in
  if n = 0 then invalid_arg "Quantile.mean: no samples";
  Array.fold_left ( +. ) 0. samples /. float_of_int n
