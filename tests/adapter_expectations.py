"""Expected adapter rows, transcribed independently of the shipped configs.

Each entry is (raw_name, canonical_name, role, unit).  Patterned source
tables are expanded by the small loops below, mirroring the upstream
per-axis repetition, so every shipped row is covered by a table-driven
comparison.
"""

VORAUS_EXPECTED = []
for i in range(6):
    s = i + 1  # source joints are 1-indexed
    VORAUS_EXPECTED += [
        (f"target_position_{s}", f"setpoint_pos_{i}", "setpoint", "rad"),
        (f"target_velocity_{s}", f"setpoint_vel_{i}", "setpoint", "rad/s"),
        (f"target_acceleration_{s}", f"setpoint_acc_{i}", "setpoint", "rad/s^2"),
        (f"target_torque_{s}", f"setpoint_torque_{i}", "setpoint", "Nm"),
        (f"joint_position_{s}", f"feedback_pos_{i}", "feedback", "rad"),
        (f"joint_velocity_{s}", f"feedback_vel_{i}", "feedback", "rad/s"),
        (f"motor_position_{s}", f"feedback_motor_pos_{i}", "feedback", "rad"),
        (f"motor_velocity_{s}", f"feedback_motor_vel_{i}", "feedback", "rad/s"),
        (f"torque_sensor_a_{s}", f"feedback_torque_a_{i}", "feedback", "Nm"),
        (f"torque_sensor_b_{s}", f"feedback_torque_b_{i}", "feedback", "Nm"),
        (f"motor_torque_{s}", f"effort_motor_torque_{i}", "effort", "Nm"),
        (f"motor_iq_{s}", f"effort_current_iq_{i}", "effort", "A"),
        (f"motor_id_{s}", f"effort_current_id_{i}", "effort", "A"),
        (f"power_motor_el_{s}", f"effort_power_el_{i}", "effort", "W"),
        (f"power_motor_mech_{s}", f"effort_power_mech_{i}", "effort", "W"),
        (f"power_load_mech_{s}", f"effort_power_load_{i}", "effort", "W"),
        (f"motor_voltage_{s}", f"effort_voltage_{i}", "effort", "V"),
        (f"computed_inertia_{s}", f"ctx_inertia_{i}", "context", "-"),
        (f"computed_torque_{s}", f"ctx_computed_torque_{i}", "context", "Nm"),
        (f"supply_voltage_{s}", f"ctx_busvoltage_{i}", "context", "V"),
        (f"brake_voltage_{s}", f"ctx_brake_voltage_{i}", "context", "V"),
    ]
VORAUS_EXPECTED += [
    ("robot_voltage", "ctx_robot_voltage", "context", "V"),
    ("robot_current", "ctx_robot_current", "context", "A"),
    ("io_current", "ctx_io_current", "context", "A"),
    ("system_current", "ctx_system_current", "context", "A"),
    ("anomaly", "ctx_is_anomaly", "raw_label", "bool"),
    ("category", "ctx_anomaly_category", "raw_label", "str"),
    ("setting", "ctx_setting", "metadata", "str"),
]

AURSAD_EXPECTED = []
for i in range(6):
    AURSAD_EXPECTED += [
        (f"target_q_{i}", f"setpoint_pos_{i}", "setpoint", "rad"),
        (f"target_qd_{i}", f"setpoint_vel_{i}", "setpoint", "rad/s"),
        (f"target_qdd_{i}", f"setpoint_acc_{i}", "setpoint", "rad/s^2"),
        (f"target_current_{i}", f"setpoint_current_{i}", "setpoint", "A"),
        (f"target_moment_{i}", f"setpoint_torque_{i}", "setpoint", "Nm"),
        (f"actual_q_{i}", f"feedback_pos_{i}", "feedback", "rad"),
        (f"actual_qd_{i}", f"feedback_vel_{i}", "feedback", "rad/s"),
        (f"actual_current_{i}", f"effort_current_{i}", "effort", "A"),
        (f"actual_control_output_{i}", f"effort_control_{i}", "effort", "-"),
        (f"actual_joint_voltage_{i}", f"effort_voltage_{i}", "effort", "V"),
        (f"joint_temperatures_{i}", f"ctx_temp_{i}", "context", "degC"),
        (f"joint_mode_{i}", f"ctx_joint_mode_{i}", "context", "enum"),
        (f"target_TCP_pose_{i}", f"setpoint_pos_cartesian_{i}", "setpoint", "m/rad"),
        (f"target_TCP_speed_{i}", f"setpoint_vel_cartesian_{i}", "setpoint", "m/s"),
        (f"actual_TCP_pose_{i}", f"feedback_pos_cartesian_{i}", "feedback", "m/rad"),
        (f"actual_TCP_speed_{i}", f"feedback_vel_cartesian_{i}", "feedback", "m/s"),
        (f"actual_TCP_force_{i}", f"effort_force_cartesian_{i}", "effort", "N"),
    ]
for i in range(3):
    AURSAD_EXPECTED.append(
        (f"actual_tool_accelerometer_{i}", f"auxiliary_accel_tool_{i}", "auxiliary", "m/s^2")
    )
AURSAD_EXPECTED += [
    ("output_double_register_24", "feedback_torque_tool", "feedback", "Nm"),
    ("output_double_register_25", "effort_torque_tool", "effort", "Nm"),
    ("output_double_register_26", "setpoint_torque_tool", "setpoint", "Nm"),
    ("output_double_register_27", "setpoint_torque_gradient_tool", "setpoint", "Nm/s"),
    ("actual_main_voltage", "ctx_main_voltage", "context", "V"),
    ("actual_robot_voltage", "ctx_robot_voltage", "context", "V"),
    ("actual_robot_current", "ctx_robot_current", "context", "A"),
    ("speed_scaling", "ctx_speed_scaling", "context", "-"),
    ("target_speed_fraction", "ctx_target_speed_fraction", "context", "-"),
    ("actual_momentum", "ctx_momentum", "context", "kg*m/s"),
    ("robot_mode", "ctx_robot_mode", "context", "enum"),
    ("safety_mode", "ctx_safety_mode", "context", "enum"),
    ("runtime_state", "ctx_runtime_state", "context", "enum"),
    ("label", "raw_label", "raw_label", "-"),
]

CNC_EXPECTED = []
for ax, i in (("X1", 0), ("Y1", 1), ("Z1", 2)):
    CNC_EXPECTED += [
        (f"{ax}_CommandPosition", f"setpoint_pos_{i}", "setpoint", "mm"),
        (f"{ax}_CommandVelocity", f"setpoint_vel_{i}", "setpoint", "mm/s"),
        (f"{ax}_CommandAcceleration", f"setpoint_acc_{i}", "setpoint", "mm/s^2"),
        (f"{ax}_ActualPosition", f"feedback_pos_{i}", "feedback", "mm"),
        (f"{ax}_ActualVelocity", f"feedback_vel_{i}", "feedback", "mm/s"),
        (f"{ax}_ActualAcceleration", f"feedback_acc_{i}", "feedback", "mm/s^2"),
        (f"{ax}_CurrentFeedback", f"feedback_current_{i}", "feedback", "A"),
        (f"{ax}_OutputCurrent", f"effort_current_{i}", "effort", "A"),
        (f"{ax}_OutputVoltage", f"effort_voltage_{i}", "effort", "V"),
        (f"{ax}_OutputPower", f"effort_power_{i}", "effort", "W"),
        (f"{ax}_DCBusVoltage", f"ctx_busvoltage_{i}", "context", "V"),
    ]
CNC_EXPECTED += [
    ("S1_CommandPosition", "setpoint_pos_3", "setpoint", "deg"),
    ("S1_CommandVelocity", "setpoint_vel_3", "setpoint", "rpm"),
    ("S1_CommandAcceleration", "setpoint_acc_3", "setpoint", "rpm/s"),
    ("S1_ActualPosition", "feedback_pos_3", "feedback", "deg"),
    ("S1_ActualVelocity", "feedback_vel_3", "feedback", "rpm"),
    ("S1_ActualAcceleration", "feedback_acc_3", "feedback", "rpm/s"),
    ("S1_CurrentFeedback", "feedback_current_3", "feedback", "A"),
    ("S1_OutputCurrent", "effort_current_3", "effort", "A"),
    ("S1_OutputVoltage", "effort_voltage_3", "effort", "V"),
    ("S1_OutputPower", "effort_power_3", "effort", "W"),
    ("S1_DCBusVoltage", "ctx_busvoltage_3", "context", "V"),
    ("S1_SystemInertia", "ctx_inertia_3", "context", "-"),
    ("M1_CURRENT_PROGRAM_NUMBER", "ctx_program_number", "context", "-"),
    ("M1_sequence_number", "ctx_sequence_number", "context", "-"),
    ("M1_CURRENT_FEEDRATE", "ctx_feedrate", "context", "mm/min"),
]

UR3_EXPECTED = [("machine_id", "meta_machine_id", "metadata", "-")]
for i in range(6):
    UR3_EXPECTED += [
        (f"ur3_robot_target_joint_{i}", f"setpoint_pos_{i}", "setpoint", "rad"),
        (f"ur3_robot_target_joint_vel_{i}", f"setpoint_vel_{i}", "setpoint", "rad/s"),
        (f"ur3_robot_joint_{i}", f"feedback_pos_{i}", "feedback", "rad"),
        (f"ur3_robot_joint_vel_{i}", f"feedback_vel_{i}", "feedback", "rad/s"),
        (f"ur3_robot_joint_current_{i}", f"effort_current_{i}", "effort", "A"),
        (f"ur3_robot_target_joint_current_{i}", f"setpoint_current_{i}", "setpoint", "A"),
        (f"ur3_robot_joint_temp_{i}", f"ctx_temp_{i}", "context", "degC"),
        (f"ur3_robot_joint_control_output_{i}", f"effort_control_{i}", "effort", "-"),
        (f"ur3_robot_joint_mode_{i}", f"ctx_joint_mode_{i}", "context", "enum"),
    ]
for c, i in (("x", 0), ("y", 1), ("z", 2)):
    UR3_EXPECTED += [
        (f"ur3_robot_tcp_{c}", f"feedback_pos_cartesian_{i}", "feedback", "m"),
        (f"ur3_robot_target_tcp_{c}", f"setpoint_pos_cartesian_{i}", "setpoint", "m"),
        (f"ur3_robot_tcp_speed_{c}", f"feedback_vel_cartesian_{i}", "feedback", "m/s"),
        (f"ur3_robot_target_tcp_speed_{c}", f"setpoint_vel_cartesian_{i}", "setpoint", "m/s"),
        (f"ur3_robot_tcp_force_{c}", f"effort_force_cartesian_{i}", "effort", "N"),
        (f"ur3_robot_tcp_torque_{c}", f"effort_torque_cartesian_{i}", "effort", "Nm"),
    ]
for c, i in (("rx", 3), ("ry", 4), ("rz", 5)):
    UR3_EXPECTED += [
        (f"ur3_robot_tcp_{c}", f"feedback_pos_cartesian_{i}", "feedback", "rad"),
        (f"ur3_robot_target_tcp_{c}", f"setpoint_pos_cartesian_{i}", "setpoint", "rad"),
        (f"ur3_robot_tcp_speed_{c}", f"feedback_vel_cartesian_{i}", "feedback", "rad/s"),
        (f"ur3_robot_target_tcp_speed_{c}", f"setpoint_vel_cartesian_{i}", "setpoint", "rad/s"),
    ]
UR3_EXPECTED += [
    ("ur3_robot_robot_mode", "ctx_robot_mode", "context", "enum"),
    ("ur3_robot_safety_mode", "ctx_safety_mode", "context", "enum"),
    ("ur3_robot_digital_inputs", "ctx_digital_inputs", "context", "bitmask"),
    ("ur3_robot_digital_outputs", "ctx_digital_outputs", "context", "bitmask"),
    ("ur3_robot_robot_status", "ctx_robot_status", "context", "enum"),
    ("ur3_robot_safety_status", "ctx_safety_status", "context", "enum"),
    ("ur3_robot_runtime_state", "ctx_runtime_state", "context", "enum"),
    ("ur3_robot_main_voltage", "ctx_main_voltage", "context", "V"),
    ("ur3_robot_robot_voltage", "ctx_robot_voltage", "context", "V"),
    ("ur3_robot_robot_current", "ctx_robot_current", "context", "A"),
    ("ur3_robot_analog_input_0", "ctx_analog_input_0", "context", "V/A"),
    ("ur3_robot_analog_input_1", "ctx_analog_input_1", "context", "V/A"),
    ("ur3_robot_analog_output_0", "ctx_analog_output_0", "context", "V/A"),
    ("ur3_robot_analog_output_1", "ctx_analog_output_1", "context", "V/A"),
    ("ur3_robot_speed_scaling", "ctx_speed_scaling", "context", "%"),
    ("ur3_robot_target_speed_fraction", "ctx_target_speed_fraction", "context", "%"),
    ("ur3_robot_momentum", "ctx_momentum", "context", "kg*m/s"),
    ("realsense_camera_frame_count", "ctx_camera_frame_count", "context", "count"),
    ("realsense_camera_connected", "ctx_camera_connected", "context", "bool"),
    ("realsense_camera_streaming", "ctx_camera_streaming", "context", "bool"),
]

KUKA_EXPECTED = []
for i in range(6):
    s = i + 1
    KUKA_EXPECTED += [
        (f"axis_position_actual_a{s}", f"feedback_pos_{i}", "feedback", "deg"),
        (f"axis_position_command_a{s}", f"setpoint_pos_{i}", "setpoint", "deg"),
        (f"motor_current_a{s}", f"effort_current_{i}", "effort", "%"),
        (f"motor_torque_a{s}", f"effort_motor_torque_{i}", "effort", "Nm"),
        (f"motor_temperature_a{s}", f"ctx_temp_{i}", "context", "K"),
    ]
for c, i in (("x", 0), ("y", 1), ("z", 2)):
    KUKA_EXPECTED.append((f"tcp_pose_actual_{c}", f"feedback_pos_cartesian_{i}", "feedback", "mm"))
    KUKA_EXPECTED.append((f"cart_accel_{c}", f"feedback_acc_cartesian_{i}", "feedback", "m/s^2"))
for c, i in (("a", 3), ("b", 4), ("c", 5)):
    KUKA_EXPECTED.append((f"tcp_pose_actual_{c}", f"feedback_pos_cartesian_{i}", "feedback", "deg"))
KUKA_EXPECTED += [
    ("cart_accel_abs", "feedback_acc_cartesian_abs", "feedback", "m/s^2"),
    ("speed_override", "ctx_speed_override", "context", "%"),
    ("process_state", "ctx_process_state", "context", "enum"),
    ("digital_inputs", "ctx_digital_inputs", "context", "bitmask"),
    ("digital_outputs", "ctx_digital_outputs", "context", "bitmask"),
]

#: Channels the KUKA controller interface cannot expose (KSS 8.3).
KUKA_ABSENT_EXPECTED = (
    [f"feedback_vel_{i}" for i in range(6)]
    + [f"setpoint_pos_cartesian_{i}" for i in range(6)]
    + [f"effort_force_cartesian_{i}" for i in range(3)]
    + [f"effort_torque_cartesian_{i}" for i in range(3)]
    + [f"effort_voltage_{i}" for i in range(6)]
    + [f"auxiliary_accel_tool_{i}" for i in range(3)]
    + [f"effort_control_{i}" for i in range(6)]
)

ISAAC_EXPECTED = [
    ("episode", "meta_episode", "metadata", "count"),
    ("step", "meta_step", "metadata", "count"),
    ("time", "meta_time", "metadata", "s"),
    ("state_machine", "ctx_state_machine", "context", "enum"),
]
for i in range(6):
    ISAAC_EXPECTED += [
        (f"joint_cmd_pos_rad_{i}", f"setpoint_pos_{i}", "setpoint", "rad"),
        (f"joint_cmd_vel_radps_{i}", f"setpoint_vel_{i}", "setpoint", "rad/s"),
        (f"joint_pos_rad_{i}", f"feedback_pos_{i}", "feedback", "rad"),
        (f"joint_vel_radps_{i}", f"feedback_vel_{i}", "feedback", "rad/s"),
        (f"joint_accel_radps2_{i}", f"feedback_acc_{i}", "feedback", "rad/s^2"),
        (f"joint_torque_nm_{i}", f"effort_motor_torque_{i}", "effort", "Nm"),
        (f"joint_pos_error_rad_{i}", f"ctx_pos_error_{i}", "context", "rad"),
    ]
for c, i in (("x", 0), ("y", 1), ("z", 2)):
    ISAAC_EXPECTED += [
        (f"ee_cmd_pos_{c}", f"setpoint_pos_cartesian_{i}", "setpoint", "m"),
        (f"ee_pos_{c}", f"feedback_pos_cartesian_{i}", "feedback", "m"),
        (f"ee_linvel_{c}", f"feedback_vel_cartesian_{i}", "feedback", "m/s"),
        (f"ee_linacc_{c}", f"feedback_acc_cartesian_{i}", "feedback", "m/s^2"),
        (f"contact_force_{c}_n", f"effort_contact_force_{i}", "effort", "N"),
        (f"contact_torque_{c}_nm", f"effort_contact_torque_{i}", "effort", "Nm"),
        (f"cube_pos_{c}", f"ctx_cube_pos_{i}", "context", "m"),
        (f"cube_linvel_{c}", f"ctx_cube_linvel_{i}", "context", "m/s"),
        (f"cube_angvel_{c}", f"ctx_cube_angvel_{i}", "context", "rad/s"),
        (f"ee_cube_offset_{c}", f"ctx_ee_cube_offset_{i}", "context", "m"),
    ]
for c, i in (("x", 3), ("y", 4), ("z", 5)):
    ISAAC_EXPECTED += [
        (f"ee_angvel_{c}", f"feedback_vel_cartesian_{i}", "feedback", "rad/s"),
        (f"ee_angacc_{c}", f"feedback_acc_cartesian_{i}", "feedback", "rad/s^2"),
    ]
for c, i in (("w", 0), ("x", 1), ("y", 2), ("z", 3)):
    ISAAC_EXPECTED += [
        (f"ee_cmd_quat_{c}", f"setpoint_quat_{i}", "setpoint", "-"),
        (f"ee_quat_{c}", f"feedback_quat_{i}", "feedback", "-"),
        (f"cube_quat_{c}", f"ctx_cube_quat_{i}", "context", "-"),
    ]
for c, i in (("roll", 0), ("pitch", 1), ("yaw", 2)):
    ISAAC_EXPECTED.append((f"ee_euler_{c}_rad", f"feedback_euler_{i}", "feedback", "rad"))
ISAAC_EXPECTED += [
    ("gripper_cmd_rad", "setpoint_gripper_pos", "setpoint", "rad"),
    ("gripper_pos_rad", "feedback_gripper_pos", "feedback", "rad"),
    ("gripper_attached", "ctx_gripper_attached", "context", "bool"),
    ("contact_force_mag_n", "effort_contact_force_mag", "effort", "N"),
    ("contact_torque_mag_nm", "effort_contact_torque_mag", "effort", "Nm"),
    ("cube_mass_kg", "ctx_cube_mass", "context", "kg"),
    ("cube_friction_coeff", "ctx_cube_friction", "context", "-"),
    ("cube_width_m", "ctx_cube_width", "context", "m"),
    ("cube_depth_m", "ctx_cube_depth", "context", "m"),
    ("cube_height_m", "ctx_cube_height", "context", "m"),
]

#: The raw column each source logs its phase labels in, where it has one.
PHASE_COLUMN_EXPECTED = {"isaac_ur5": "phase", "umich_cnc": "Machining_Process"}

EXPECTED_BY_SOURCE = {
    "voraus_ad": VORAUS_EXPECTED,
    "aursad": AURSAD_EXPECTED,
    "umich_cnc": CNC_EXPECTED,
    "ur3_lab": UR3_EXPECTED,
    "kuka_kr10": KUKA_EXPECTED,
    "isaac_ur5": ISAAC_EXPECTED,
}
