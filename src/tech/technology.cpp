#include "tech/technology.h"

#include <cmath>
#include <stdexcept>

namespace cong93 {

namespace {
constexpr double kFemto = 1e-15;
}

Technology Technology::with_driver_scale(double factor) const
{
    if (!std::isfinite(factor) || factor <= 0.0)
        throw std::invalid_argument("driver scale must be finite and positive");
    Technology t = *this;
    t.driver_resistance_ohm /= factor;
    t.name += " x" + std::to_string(factor);
    return t;
}

Technology mcm_technology()
{
    Technology t;
    t.name = "MCM";
    t.driver_resistance_ohm = 25.0;
    t.unit_wire_resistance_ohm = 0.008;          // ohm/um
    t.unit_wire_capacitance_f = 0.060 * kFemto;  // 0.060 fF/um
    t.sink_load_f = 1000.0 * kFemto;             // 1000 fF
    t.unit_wire_inductance_h = 380.0 * kFemto;   // 380 fH/um
    t.grid_pitch_um = 25.0;                      // 100mm / 4000 grids
    t.base_width_um = 15.0;                      // W1 of Table 6
    return t;
}

Technology cmos_2000nm()
{
    Technology t;
    t.name = "2.0um CMOS";
    t.driver_resistance_ohm = 2970.0;
    t.unit_wire_resistance_ohm = 0.0206;
    t.unit_wire_capacitance_f = 0.0540 * kFemto;
    t.sink_load_f = 5.175 * kFemto;
    t.grid_pitch_um = 1.0;  // 0.5mm x 0.5mm region -> 500x500 grid
    t.base_width_um = 2.0;
    return t;
}

Technology cmos_1500nm()
{
    Technology t;
    t.name = "1.5um CMOS";
    t.driver_resistance_ohm = 1430.0;
    t.unit_wire_resistance_ohm = 0.0150;
    t.unit_wire_capacitance_f = 0.0042 * kFemto;
    t.sink_load_f = 6.210 * kFemto;
    t.grid_pitch_um = 1.0;
    t.base_width_um = 1.5;
    return t;
}

Technology cmos_1200nm()
{
    Technology t;
    t.name = "1.2um CMOS";
    t.driver_resistance_ohm = 1280.0;
    t.unit_wire_resistance_ohm = 0.0164;
    t.unit_wire_capacitance_f = 0.0053 * kFemto;
    t.sink_load_f = 4.416 * kFemto;
    t.grid_pitch_um = 1.0;
    t.base_width_um = 1.2;
    return t;
}

Technology cmos_500nm()
{
    Technology t;
    t.name = "0.5um CMOS";
    t.driver_resistance_ohm = 1560.0;
    t.unit_wire_resistance_ohm = 0.1120;
    t.unit_wire_capacitance_f = 0.0391 * kFemto;
    t.sink_load_f = 1.000 * kFemto;
    t.grid_pitch_um = 1.0;
    t.base_width_um = 0.5;
    return t;
}

std::vector<Technology> table9_technologies()
{
    return {cmos_2000nm(), cmos_1500nm(), cmos_1200nm(), cmos_500nm()};
}

}  // namespace cong93
