type t = {
  name : string;
  capacity : Res.t;
  base_clock_mhz : float;
  usable_fraction : float;
}

let xcvu9p =
  {
    name = "xcvu9p";
    capacity = { Res.lut = 1182240; ff = 2364480; bram = 2160; dsp = 6840 };
    base_clock_mhz = 150.0;
    usable_fraction = 0.97;
  }

let u250 =
  {
    name = "xcu250";
    capacity = { Res.lut = 1728000; ff = 3456000; bram = 2688; dsp = 12288 };
    base_clock_mhz = 140.0;
    usable_fraction = 0.96;
  }

let default = xcvu9p
let usable t = Res.scale_f t.usable_fraction t.capacity
