(* A scalar dot product, [s += a[i] * b[i]] over 256 i32 elements: a
   [Reduce] the scheduler binds to the register engine.  No Table II
   kernel has one, so the goldens and the register-engine tests add this
   kernel beside [Kernels.all] (which stays the paper's 19). *)

open Overgen_adg
open Overgen_workload

let kernel : Ir.kernel =
  let ld array = Ir.Load { array; index = Direct (Ir.affine [ ("i", 1) ]) } in
  {
    name = "dot-reg";
    suite = Suite.Dsp;
    dtype = Dtype.I32;
    lanes = 1;
    arrays = [ ("a", 256); ("b", 256) ];
    size_desc = "256";
    regions =
      [
        {
          rname = "dot";
          loops = [ { var = "i"; trip = Fixed 256 } ];
          body = [ Reduce ("s", Op.Add, Binop (Op.Mul, ld "a", ld "b")) ];
          hls = Clean;
        };
      ];
    og_tuning = None;
    window_reuse = false;
    needs_broadcast = false;
  }
