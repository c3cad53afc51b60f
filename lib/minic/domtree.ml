type t = {
  f : Ir.func;
  order : Ir.label array;  (* reverse postorder *)
  index : (Ir.label, int) Hashtbl.t;  (* label -> rpo index *)
  idom : int array;  (* rpo index -> rpo index of immediate dominator *)
  preds : (Ir.label, Ir.label list) Hashtbl.t;
}

let reverse_postorder (f : Ir.func) =
  let visited = Hashtbl.create 16 in
  let out = ref [] in
  let rec dfs l =
    if not (Hashtbl.mem visited l) then begin
      Hashtbl.replace visited l ();
      List.iter dfs (Ir.successors (Ir.block f l).Ir.term);
      out := l :: !out
    end
  in
  dfs f.Ir.entry;
  Array.of_list !out

let predecessors (f : Ir.func) reachable =
  let preds = Hashtbl.create 16 in
  Hashtbl.iter (fun l () -> Hashtbl.replace preds l []) reachable;
  Hashtbl.iter
    (fun l () ->
      List.iter
        (fun s ->
          if Hashtbl.mem reachable s then
            Hashtbl.replace preds s (l :: Hashtbl.find preds s))
        (Ir.successors (Ir.block f l).Ir.term))
    reachable;
  preds

(* Cooper, Harvey & Kennedy, "A Simple, Fast Dominance Algorithm". *)
let compute (f : Ir.func) =
  let order = reverse_postorder f in
  let n = Array.length order in
  let index = Hashtbl.create n in
  Array.iteri (fun i l -> Hashtbl.replace index l i) order;
  let reachable = Hashtbl.create n in
  Array.iter (fun l -> Hashtbl.replace reachable l ()) order;
  let preds = predecessors f reachable in
  let idom = Array.make n (-1) in
  idom.(0) <- 0;
  let rec intersect a b =
    if a = b then a
    else if a > b then intersect idom.(a) b
    else intersect a idom.(b)
  in
  let changed = ref true in
  while !changed do
    changed := false;
    for i = 1 to n - 1 do
      let ps =
        List.filter_map
          (fun p ->
            let pi = Hashtbl.find index p in
            if idom.(pi) >= 0 || pi = 0 then Some pi else None)
          (Hashtbl.find preds order.(i))
      in
      match ps with
      | [] -> ()
      | first :: rest ->
        let new_idom = List.fold_left intersect first rest in
        if idom.(i) <> new_idom then begin
          idom.(i) <- new_idom;
          changed := true
        end
    done
  done;
  { f; order; index; idom; preds }

let idom t l =
  match Hashtbl.find_opt t.index l with
  | None -> None
  | Some 0 -> None
  | Some i ->
    let d = t.idom.(i) in
    if d < 0 then None else Some t.order.(d)

let dominates t a b =
  match (Hashtbl.find_opt t.index a, Hashtbl.find_opt t.index b) with
  | Some ai, Some bi ->
    let rec walk i = i = ai || (i <> 0 && walk t.idom.(i)) in
    walk bi
  | _ -> false

let backedges t =
  Array.to_list t.order
  |> List.concat_map (fun src ->
         List.filter_map
           (fun dst ->
             if Hashtbl.mem t.index dst && dominates t dst src then
               Some (src, dst)
             else None)
           (Ir.successors (Ir.block t.f src).Ir.term))

let natural_loop t ~src ~header =
  let body = Hashtbl.create 8 in
  Hashtbl.replace body header ();
  let rec pull l =
    if not (Hashtbl.mem body l) then begin
      Hashtbl.replace body l ();
      List.iter pull
        (Option.value ~default:[] (Hashtbl.find_opt t.preds l))
    end
  in
  pull src;
  List.filter (Hashtbl.mem body) (Array.to_list t.order)

let dominator_depth t l =
  match Hashtbl.find_opt t.index l with
  | None -> -1
  | Some i ->
    let rec depth i = if i = 0 then 0 else 1 + depth t.idom.(i) in
    depth i
