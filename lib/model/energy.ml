let fabric_energy m =
  Tech.energy_pj ~power_uw:(Power.fabric_total m) ~cycles:(Plaid_mapping.Mapping.perf_cycles m)
