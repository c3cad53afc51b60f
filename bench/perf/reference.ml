(* bench/perf/reference.txt: the expected outputs every operation is
   checked against. One line per (kind, name, seed):

     <kind> <name> <seed> key=value ...

   where seed is a number or [*] for outputs that do not depend on the
   seed (the app kernels, detailed serve jobs). Lines starting with [#]
   are comments. [perf.exe --write-reference --seed N] rewrites the
   rows of seed N and the [*] rows, keeps every other seed's rows, and
   drops rows for operations the benchmark no longer runs. *)

type t = (string * string * string, (string * string) list) Hashtbl.t

let header =
  "# bench/perf reference outputs: <kind> <name> <seed|*> key=value ...\n\
   # Regenerate with: dune exec bench/perf/perf.exe -- --write-reference --seed N\n"

let parse_line line =
  match String.split_on_char ' ' (String.trim line) with
  | kind :: name :: seed :: fields when kind <> "" && kind.[0] <> '#' ->
    let kv =
      List.filter_map
        (fun f ->
          match String.index_opt f '=' with
          | Some i ->
            Some (String.sub f 0 i, String.sub f (i + 1) (String.length f - i - 1))
          | None -> None)
        fields
    in
    Some ((kind, name, seed), kv)
  | _ -> None

let load path : t =
  let t = Hashtbl.create 64 in
  (if Sys.file_exists path then
     In_channel.with_open_bin path In_channel.input_lines
     |> List.iter (fun l ->
            match parse_line l with
            | Some (k, v) -> Hashtbl.replace t k v
            | None -> ()));
  t

(* The seed's own row first, then the seed-independent one. *)
let find (t : t) ~kind ~name ~seed =
  match Hashtbl.find_opt t (kind, name, string_of_int seed) with
  | Some v -> Some v
  | None -> Hashtbl.find_opt t (kind, name, "*")

let set (t : t) ~kind ~name ~seed fields =
  Hashtbl.replace t (kind, name, seed) fields

let save path (t : t) =
  let rows =
    Hashtbl.fold (fun k v acc -> (k, v) :: acc) t [] |> List.sort compare
  in
  Out_channel.with_open_bin path (fun oc ->
      output_string oc header;
      List.iter
        (fun ((kind, name, seed), kv) ->
          Printf.fprintf oc "%s %s %s %s\n" kind name seed
            (String.concat " " (List.map (fun (k, v) -> k ^ "=" ^ v) kv)))
        rows)
