(* Order statistics over the benchmark's samples. *)

let median xs =
  let a = Array.of_list xs in
  Array.sort compare a;
  let n = Array.length a in
  if n = 0 then nan
  else if n mod 2 = 1 then a.(n / 2)
  else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.0

(* Linear interpolation between order statistics; [None] unless at least
   ten samples lie beyond the percentile on either side. *)
let percentile xs q =
  let a = Array.copy xs in
  let n = Array.length a in
  if float_of_int n *. (1.0 -. q) < 10.0 || float_of_int n *. q < 10.0 then None
  else begin
    Array.sort compare a;
    let r = q *. float_of_int (n - 1) in
    let i = int_of_float r in
    let f = r -. float_of_int i in
    Some (if i + 1 < n then a.(i) +. (f *. (a.(i + 1) -. a.(i))) else a.(i))
  end
