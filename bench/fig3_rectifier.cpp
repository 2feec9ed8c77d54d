// Fig. 3 — Rectifier nonlinearity: RF-to-DC conversion efficiency and DC
// output versus RF input power.
//
// Expected shape: zero below the sensitivity threshold, a steep knee, then
// saturation near the peak efficiency — the curve that makes partial wave
// cancellation equivalent to total energy denial.
#include <iostream>

#include "analysis/table.hpp"
#include "wpt/rectifier.hpp"

int main() {
  using namespace wrsn;

  const wpt::Rectifier rect;  // default commodity-harvester parameters

  analysis::Table table("Fig. 3: rectifier RF->DC transfer curve");
  table.headers({"RF in [dBm]", "RF in [W]", "efficiency", "DC out [W]"});

  for (double dbm = -10.0; dbm <= 42.0; dbm += 2.0) {
    const Watts rf = dbm_to_watts(dbm);
    table.row({analysis::fmt(dbm, 0), analysis::fmt(rf, 6),
               analysis::fmt(rect.efficiency(rf), 4),
               analysis::fmt(rect.dc_output(rf), 5)});
  }
  table.print(std::cout);

  std::cout << "\nSensitivity threshold: "
            << analysis::fmt(watts_to_dbm(rect.params().sensitivity), 1)
            << " dBm; peak efficiency " << rect.params().max_efficiency
            << "; DC cap " << rect.params().dc_cap << " W\n";
  return 0;
}
