(* Memory as the CPU sees it, for the twin differentials.

   DRAM alone misses whatever still sits dirty in the L2: bytes and
   taint labels a walk or a fault has written but not yet written
   back.  The CPU-visible view takes each resident line (data and, with
   taint on, its shadow) where cached and DRAM elsewhere.  It reads the
   cache arrays through [Pl310.iter_resident] and [Pl310.line_shadow]:
   no lookup, no statistics, no clock, so taking a checkpoint never
   perturbs the system it digests. *)

open Sentry_soc
open Sentry_kernel

(** Copies of the CPU-visible DRAM image and of its taint shadow
    ([None] when taint tracking is off). *)
let image machine =
  let dram = Machine.dram machine and l2 = Machine.l2 machine in
  let region = Dram.region dram in
  let data = Bytes.copy (Dram.raw dram) in
  let shadow = Option.map Bytes.copy (Dram.shadow dram) in
  Pl310.iter_resident l2 (fun ~way ~addr line ->
      let off = Memmap.offset region addr in
      Bytes.blit line 0 data off (Bytes.length line);
      match (shadow, Pl310.line_shadow l2 way (Pl310.set_of_addr l2 addr)) with
      | Some s, Some labels -> Bytes.blit labels 0 s off (Bytes.length labels)
      | _ -> ());
  (data, shadow)

(** [(bytes, shadow)] digests of {!image}. *)
let digests machine =
  let data, shadow = image machine in
  (Digest.bytes data, Option.map Digest.bytes shadow)

(** [(pid, vpn)] of every present page of [procs] whose CPU-visible
    labels are not uniformly what its PTE claims: [Ciphertext] while
    encrypted, [Secret_cleartext] otherwise.  Twins that mislabel alike
    pass a twin comparison; they fail this.  Empty with taint off. *)
let mislabelled_pages machine procs =
  match snd (image machine) with
  | None -> []
  | Some shadow ->
      let region = Dram.region (Machine.dram machine) in
      List.concat_map
        (fun (proc : Process.t) ->
          List.concat_map
            (fun r ->
              List.filter_map
                (fun (vpn, (pte : Page_table.pte)) ->
                  let want =
                    Taint.to_char
                      (if pte.Page_table.encrypted then Taint.Ciphertext
                       else Taint.Secret_cleartext)
                  in
                  let labels =
                    Bytes.sub shadow (Memmap.offset region pte.Page_table.frame) Page.size
                  in
                  if pte.Page_table.present && not (Bytes.for_all (Char.equal want) labels)
                  then Some (proc.Process.pid, vpn)
                  else None)
                (Address_space.region_ptes proc.Process.aspace r))
            (Address_space.regions proc.Process.aspace))
        procs
