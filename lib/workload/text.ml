let generate ~seed ~length =
  if length < 0 then invalid_arg "Text.generate";
  let rng = Bor_util.Prng.create ~seed in
  let out = Bytes.create length in
  let pos = ref 0 in
  let put c =
    if !pos < length then begin
      Bytes.set out !pos c;
      incr pos
    end
  in
  let word () =
    (* Word lengths cluster at 3-8 characters, geometric-ish tail. *)
    let len = 2 + Bor_util.Prng.int rng 4 + Bor_util.Prng.int rng 4 in
    let upper = Bor_util.Prng.float rng < 0.42 in
    let base = if upper then Char.code 'A' else Char.code 'a' in
    for _ = 1 to len do
      put (Char.chr (base + Bor_util.Prng.int rng 26))
    done
  in
  let separator () =
    let r = Bor_util.Prng.float rng in
    if r < 0.82 then put ' '
    else if r < 0.90 then begin
      put ',';
      put ' '
    end
    else if r < 0.96 then begin
      put '.';
      put ' '
    end
    else put '\n'
  in
  while !pos < length do
    word ();
    if !pos < length then separator ()
  done;
  out

