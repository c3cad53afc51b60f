type t = int

let count = 32

let of_int i =
  if i < 0 || i >= count then invalid_arg "Reg.of_int: need 0..31";
  i

let to_int r = r
let zero = 0
let ra = 1
let sp = 2
let gp = 3

let a i =
  if i < 0 || i > 3 then invalid_arg "Reg.a: need 0..3";
  4 + i

let t_ i =
  if i < 0 || i > 7 then invalid_arg "Reg.t_: need 0..7";
  8 + i

let s i =
  if i < 0 || i > 7 then invalid_arg "Reg.s: need 0..7";
  16 + i

let x i =
  if i < 24 || i > 31 then invalid_arg "Reg.x: need 24..31";
  i

let name r =
  match r with
  | 0 -> "zero"
  | 1 -> "ra"
  | 2 -> "sp"
  | 3 -> "gp"
  | _ when r <= 7 -> Printf.sprintf "a%d" (r - 4)
  | _ when r <= 15 -> Printf.sprintf "t%d" (r - 8)
  | _ when r <= 23 -> Printf.sprintf "s%d" (r - 16)
  | _ -> Printf.sprintf "x%d" r

let of_name s =
  let num prefix base lo hi =
    let l = String.length prefix in
    if String.length s > l && String.sub s 0 l = prefix then
      match int_of_string_opt (String.sub s l (String.length s - l)) with
      | Some i when i >= lo && i <= hi -> Some (base + i - lo)
      | Some _ | None -> None
    else None
  in
  match s with
  | "zero" -> Some 0
  | "ra" -> Some 1
  | "sp" -> Some 2
  | "gp" -> Some 3
  | _ -> (
    match num "a" 4 0 3 with
    | Some r -> Some r
    | None -> (
      match num "t" 8 0 7 with
      | Some r -> Some r
      | None -> (
        match num "s" 16 0 7 with
        | Some r -> Some r
        | None -> (
          match num "x" 24 24 31 with
          | Some r -> Some r
          | None -> num "r" 0 0 31))))

let caller_saved = List.init 8 (fun i -> 8 + i) @ List.init 8 (fun i -> 24 + i)
let callee_saved = List.init 8 (fun i -> 16 + i)
let equal = Int.equal
let compare = Int.compare
