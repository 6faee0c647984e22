# `lll sweep --json` carries the table's recipe verdict: the JSON's
# count of "recommended": true rows must equal the text table's count of
# `rec` cells.  `--json -` puts the JSON on stdout and the table on
# stderr, so one sweep yields both.
# Run via: cmake -DLLL_BIN=... -P sweep_json.cmake

execute_process(COMMAND ${LLL_BIN} sweep --jobs 4 --json -
                RESULT_VARIABLE got_exit
                OUTPUT_VARIABLE json
                ERROR_VARIABLE table)
if(NOT got_exit EQUAL 0)
    message(FATAL_ERROR "lll sweep --json -: exit ${got_exit}\n${table}")
endif()

string(REGEX MATCHALL "\"recommended\": true" json_rec "${json}")
string(REGEX MATCHALL "\"recommended\": (true|false)" json_rows "${json}")
string(REGEX MATCHALL "\\| rec +\\|" table_rec "${table}")
string(REGEX MATCHALL "\"source\": " json_sources "${json}")
list(LENGTH json_rec n_json)
list(LENGTH json_rows n_json_rows)
list(LENGTH table_rec n_table)
list(LENGTH json_sources n_sources)

if(n_table EQUAL 0)
    message(FATAL_ERROR "lll sweep: no `rec` rows in the table\n${table}")
endif()
if(NOT n_json_rows EQUAL n_sources)
    message(FATAL_ERROR "lll sweep --json: ${n_sources} rows but "
                        "${n_json_rows} carry \"recommended\"")
endif()
if(NOT n_json EQUAL n_table)
    message(FATAL_ERROR "lll sweep --json: ${n_json} recommended rows, "
                        "but the table has ${n_table} `rec` rows")
endif()
message(STATUS "sweep: ${n_table} recommended rows in table and JSON")
