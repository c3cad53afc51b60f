type kind = Counters | Words

type 'a t =
  | Table of string * kind * ('a -> Bytes.t)
  | Scalar of string * ('a -> int) * ('a -> int -> unit)

type value = Int of int | Data of kind * Bytes.t

let name = function Table (n, _, _) | Scalar (n, _, _) -> n

let table ?reuse get n fill =
  match reuse with
  | Some old when Bytes.length (get old) = n ->
    let b = get old in
    Bytes.fill b 0 n fill;
    b
  | _ -> Bytes.make n fill

let lift ?prefix proj regions =
  let name n = match prefix with None -> n | Some p -> p ^ "." ^ n in
  List.map
    (function
      | Table (n, k, get) -> Table (name n, k, fun x -> get (proj x))
      | Scalar (n, get, set) ->
        Scalar (name n, (fun x -> get (proj x)), fun x v -> set (proj x) v))
    regions

let capture regions x =
  List.map
    (function
      | Table (n, k, get) -> (n, Data (k, Bytes.copy (get x)))
      | Scalar (n, get, _) -> (n, Int (get x)))
    regions

let width = function Counters -> 1 | Words -> 8

let restore regions x values =
  List.iter2
    (fun r (n, v) ->
      match (r, v) with
      | Table (n', k, get), Data (k', b) when n = n' && k = k' ->
        let dst = get x in
        if Bytes.length b <> Bytes.length dst then
          invalid_arg
            (Printf.sprintf "%s holds %d entries, this pipeline %d" n
               (Bytes.length b / width k)
               (Bytes.length dst / width k));
        Bytes.blit b 0 dst 0 (Bytes.length dst)
      | Scalar (n', _, set), Int v when n = n' -> set x v
      | _ -> invalid_arg (Printf.sprintf "%s found where %s belongs" n (name r)))
    regions values
