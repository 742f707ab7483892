type direction = Asc | Desc

type t =
  | Unordered
  | Strict of direction
  | Monotone of direction
  | Nonrepeating
  | Banded of direction * float
  | In_group of string list * direction

let usable_for_window = function
  | Strict _ | Monotone _ | Banded _ -> true
  | Unordered | Nonrepeating | In_group _ -> false

let usable_for_epoch = usable_for_window

let band_of = function
  | Strict _ | Monotone _ -> Some 0.0
  | Banded (_, b) -> Some b
  | Unordered | Nonrepeating | In_group _ -> None

let direction_of = function
  | Strict d | Monotone d | Banded (d, _) | In_group (_, d) -> Some d
  | Unordered | Nonrepeating -> None

let weaken a b =
  match (a, b) with
  | Unordered, _ | _, Unordered -> Unordered
  | Strict d1, Strict d2 when d1 = d2 -> Strict d1
  | (Strict d1 | Monotone d1), (Strict d2 | Monotone d2) when d1 = d2 -> Monotone d1
  | ( (Strict d1 | Monotone d1 | Banded (d1, _)),
      (Strict d2 | Monotone d2 | Banded (d2, _)) )
    when d1 = d2 ->
      let band p = match band_of p with Some x -> x | None -> 0.0 in
      Banded (d1, Float.max (band a) (band b))
  | Nonrepeating, Nonrepeating -> Nonrepeating
  | (Strict _ | Nonrepeating), (Strict _ | Nonrepeating) -> Nonrepeating
  | In_group (g1, d1), In_group (g2, d2) when g1 = g2 && d1 = d2 -> In_group (g1, d1)
  | _ -> Unordered

let imputed_through_arithmetic t ~monotone_fn =
  if not monotone_fn then Unordered
  else
    match t with
    | Strict d | Monotone d -> Monotone d
    | Banded (d, b) -> Banded (d, b)
    | In_group (g, d) -> In_group (g, d)
    | Nonrepeating | Unordered -> Unordered

let ahead d a b =
  match d with Asc -> Value.compare a b > 0 | Desc -> Value.compare a b < 0

(* Groups strictly behind [frontier - band] can never receive another
   tuple; an Int frontier keeps an Int threshold, rounded away from the
   frontier. *)
let behind_threshold d ~band frontier =
  if band = 0.0 then frontier
  else
    match Value.to_float frontier with
    | None -> frontier
    | Some f -> (
        let shifted = match d with Asc -> f -. band | Desc -> f +. band in
        match frontier with
        | Value.Int _ ->
            Value.Int
              (match d with
              | Asc -> int_of_float (Float.floor shifted)
              | Desc -> int_of_float (Float.ceil shifted))
        | _ -> Value.Float shifted)

let dir_string = function Asc -> "increasing" | Desc -> "decreasing"

let to_string = function
  | Unordered -> "unordered"
  | Strict d -> "strictly " ^ dir_string d
  | Monotone d -> dir_string d
  | Nonrepeating -> "monotone nonrepeating"
  | Banded (d, b) -> Printf.sprintf "banded %s(%g)" (dir_string d) b
  | In_group (fields, d) ->
      Printf.sprintf "%s in group (%s)" (dir_string d) (String.concat ", " fields)

let pp fmt t = Format.pp_print_string fmt (to_string t)
