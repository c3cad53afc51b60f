module Sha256 = Bor_telemetry.Sha256

(* On-disk entry framing: magic, payload, trailing hex SHA-256 of the
   payload. The stamp (not just the magic) is verified on every read,
   so a truncated or bit-flipped entry can never be served. *)
let magic = "BORSTORE1\n"
let stamp_len = 64

type t = {
  s_dir : string;
  s_max_bytes : int option;
  s_seq : int Atomic.t; (* uniquifies temp names within one process *)
  s_hits : int Atomic.t;
  s_misses : int Atomic.t;
  s_corrupt : int Atomic.t;
  s_puts : int Atomic.t;
  s_evictions : int Atomic.t;
}

type stats = {
  st_hits : int;
  st_misses : int;
  st_corrupt : int;
  st_puts : int;
  st_evictions : int;
}

let rec ensure_dir path =
  if path = "" || path = "." || path = "/" || Sys.file_exists path then ()
  else begin
    ensure_dir (Filename.dirname path);
    try Unix.mkdir path 0o755
    with Unix.Unix_error (Unix.EEXIST, _, _) -> ()
  end

let create ?max_bytes dir =
  match max_bytes with
  | Some n when n <= 0 ->
      Error (Printf.sprintf "store: --cache-max-bytes must be positive (got %d)" n)
  | _ -> (
      match ensure_dir dir with
      | () when Sys.is_directory dir ->
          Ok
            {
              s_dir = dir;
              s_max_bytes = max_bytes;
              s_seq = Atomic.make 0;
              s_hits = Atomic.make 0;
              s_misses = Atomic.make 0;
              s_corrupt = Atomic.make 0;
              s_puts = Atomic.make 0;
              s_evictions = Atomic.make 0;
            }
      | () -> Error (Printf.sprintf "store: %s exists and is not a directory" dir)
      | exception Unix.Unix_error (e, _, arg) ->
          Error (Printf.sprintf "store: cannot create %s: %s %s" dir (Unix.error_message e) arg)
      | exception Sys_error msg -> Error ("store: " ^ msg))

let path_of t key = Filename.concat t.s_dir (Key.hex key)

(* An entry file name is a 64-char content address; anything else in
   the directory (temp files included) is ignored by eviction scans
   except stale temps, which are never counted against the budget. *)
let is_entry_name name =
  String.length name = stamp_len
  && String.for_all
       (fun c -> (c >= '0' && c <= '9') || (c >= 'a' && c <= 'f'))
       name

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () -> really_input_string ic (in_channel_length ic))

let validate raw =
  let mlen = String.length magic in
  let len = String.length raw in
  if len < mlen + stamp_len then None
  else if not (String.equal (String.sub raw 0 mlen) magic) then None
  else
    let payload = String.sub raw mlen (len - mlen - stamp_len) in
    let stamp = String.sub raw (len - stamp_len) stamp_len in
    if String.equal (Sha256.digest payload) stamp then Some payload else None

let remove_noerr path = try Sys.remove path with Sys_error _ -> ()

let find t key =
  let path = path_of t key in
  match read_file path with
  | exception Sys_error _ ->
      Atomic.incr t.s_misses;
      None
  | raw -> (
      match validate raw with
      | Some payload ->
          (try Unix.utimes path 0. 0. with Unix.Unix_error _ -> ());
          Atomic.incr t.s_hits;
          Some payload
      | None ->
          (* Never serve bad bytes: drop the entry so the caller's
             recompute can republish a good one. *)
          remove_noerr path;
          Atomic.incr t.s_corrupt;
          Atomic.incr t.s_misses;
          None)

let evict t ~keep =
  match t.s_max_bytes with
  | None -> ()
  | Some budget -> (
      match Sys.readdir t.s_dir with
      | exception Sys_error _ -> ()
      | names ->
          let entries =
            Array.to_list names
            |> List.filter_map (fun name ->
                   if not (is_entry_name name) then None
                   else
                     let path = Filename.concat t.s_dir name in
                     match Unix.stat path with
                     | exception Unix.Unix_error _ -> None
                     | st -> Some (name, path, st.Unix.st_size, st.Unix.st_mtime))
          in
          let total = List.fold_left (fun acc (_, _, sz, _) -> acc + sz) 0 entries in
          if total > budget then begin
            let oldest_first =
              List.sort
                (fun (n1, _, _, m1) (n2, _, _, m2) ->
                  match compare m1 m2 with 0 -> compare n1 n2 | c -> c)
                entries
            in
            let excess = ref (total - budget) in
            List.iter
              (fun (name, path, sz, _) ->
                if !excess > 0 && not (String.equal name keep) then begin
                  remove_noerr path;
                  Atomic.incr t.s_evictions;
                  excess := !excess - sz
                end)
              oldest_first
          end)

let put t key payload =
  let tmp =
    Filename.concat t.s_dir
      (Printf.sprintf ".tmp.%d.%d.%d" (Unix.getpid ())
         (Domain.self () :> int)
         (Atomic.fetch_and_add t.s_seq 1))
  in
  let final = path_of t key in
  (* The raising close on success: its flush is where a full disk
     shows, and a truncated entry must never be renamed into place. *)
  let write () =
    let oc = open_out_bin tmp in
    Fun.protect
      ~finally:(fun () -> close_out_noerr oc)
      (fun () ->
        output_string oc magic;
        output_string oc payload;
        output_string oc (Sha256.digest payload);
        close_out oc)
  in
  match write () with
  | exception Sys_error msg ->
      remove_noerr tmp;
      Error ("store: write failed: " ^ msg)
  | () -> (
      match Unix.rename tmp final with
      | exception Unix.Unix_error (e, _, _) ->
          remove_noerr tmp;
          Error ("store: rename failed: " ^ Unix.error_message e)
      | () ->
          Atomic.incr t.s_puts;
          evict t ~keep:(Key.hex key);
          Ok ())

let stats t =
  {
    st_hits = Atomic.get t.s_hits;
    st_misses = Atomic.get t.s_misses;
    st_corrupt = Atomic.get t.s_corrupt;
    st_puts = Atomic.get t.s_puts;
    st_evictions = Atomic.get t.s_evictions;
  }
